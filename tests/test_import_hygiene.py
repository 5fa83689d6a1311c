"""Keep the repository clean of unused/duplicate imports, and ``repro`` standard-library only.

CI runs the real ``ruff check`` + ``mypy`` on ``src/repro/sim`` (lint
job); this test runs the offline subset in ``tools/lint_imports.py`` over
the package, the tools, the benchmarks, the tests and the examples, so
the same class of violation fails fast in environments without the
linters installed.  A second test runs the package in a fresh
interpreter and checks that it loads nothing outside the standard
library, and no process pool on a serial run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_imports import check_file  # noqa: E402


#: The trees CI's "Import hygiene" step checks.
HYGIENE_ROOTS = ("src/repro", "tools", "benchmarks", "tests", "examples")


def test_package_import_hygiene():
    findings = []
    for root in HYGIENE_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            findings.extend(check_file(path))
    assert not findings, "\n".join(findings)


def _findings(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return [finding.split(": ", 1)[1] for finding in check_file(path)]


def test_redefinition_is_checked_one_scope_at_a_time(tmp_path):
    """The same name imported in two functions is two bindings; imported
    twice in one function (or module) body, the second redefines it."""
    assert _findings(tmp_path, (
        "def a():\n    import json\n    return json\n\n"
        "def b():\n    import json\n    return json\n"
    )) == []
    assert _findings(tmp_path, (
        "def a():\n    import json\n    import json\n    return json\n"
    )) == ["F811 redefinition of imported 'json' (first at line 2)"]
    assert _findings(tmp_path, (
        "from os import path\nfrom os import path\n\n"
        "def a():\n    return path\n"
    )) == ["F811 redefinition of imported 'path' (first at line 1)"]


def test_submodule_imports_are_distinct(tmp_path):
    """``import a.b`` beside ``import a.c`` imports two modules; the same
    dotted import twice is a redefinition."""
    assert _findings(tmp_path, (
        "import xml.dom\nimport xml.sax\n\nprint(xml)\n"
    )) == []
    assert _findings(tmp_path, (
        "import os.path\nimport os.path\n\nprint(os)\n"
    )) == ["F811 redefinition of imported 'os' (first at line 1)"]


# The subprocess records the modules its interpreter started with (site
# may load .pth packages), imports every repro module, and runs a
# scenario through the batch paths: a pread_batch pre-pass, a touch_batch
# vector run, and the same probes again under a fault injector, whose
# touch noise is drawn as a block.
_STDLIB_ONLY_SCRIPT = """
import sys
before = set(sys.modules)

import importlib
import json
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.sim import Kernel, MachineConfig, syscalls as sc
from repro.sim.inject import FaultInjector, InjectionConfig, LatencyNoise
from repro.workloads import make_file

PAGE = 4096


def probe():
    fd = (yield sc.open("/mnt0/f")).value
    yield sc.pread_batch(fd, [(i * PAGE, 64) for i in range(16)])
    region = (yield sc.vm_alloc(16 * PAGE)).value
    yield sc.touch_batch(region, 0, 16)
    yield sc.touch_batch(region, 0, 16, threshold_ns=1, slow_count=2, slow_window=4)
    yield sc.vm_free(region)
    yield sc.close(fd)


kernel = Kernel(MachineConfig(
    page_size=PAGE, memory_bytes=40 << 20, kernel_reserved_bytes=8 << 20, data_disks=1,
))
kernel.run_process(make_file("/mnt0/f", 16 * PAGE), "make")
kernel.run_process(probe(), "plain")
noise = LatencyNoise(jitter_ns=100, spike_prob=0.2, spike_ns=1000)
FaultInjector(InjectionConfig(seed=1, latency=noise)).install(kernel)
kernel.run_process(probe(), "noisy")

loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - before})
print(json.dumps({"loaded": loaded, "pool": "concurrent.futures.process" in sys.modules}))
"""


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+")
def test_simulator_imports_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    outside = [
        name for name in report["loaded"]
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert not outside, f"repro loaded modules outside the standard library: {outside}"
    assert not report["pool"], "a serial run loaded concurrent.futures.process"
