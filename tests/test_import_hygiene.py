"""Keep ``src/repro`` clean of unused/duplicate imports.

CI runs the real ``ruff check`` + ``mypy`` on ``src/repro/sim`` (lint
job); this test runs the offline subset in ``tools/lint_imports.py`` over
the whole package so the same class of violation fails fast in
environments without the linters installed.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_imports import check_file  # noqa: E402


def test_package_import_hygiene():
    findings = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        findings.extend(check_file(path))
    assert not findings, "\n".join(findings)
