#!/usr/bin/env python
"""Offline import-hygiene check: a stdlib-only subset of ruff's F401/F811.

CI runs the real ``ruff check`` (see ``.github/workflows/ci.yml``); this
script exists for development environments that cannot install ruff.  It
walks the given packages and reports:

* imports never referenced in the module (F401) — names exported via
  ``__all__`` or re-exported with ``import x as x`` are exempt;
* the same name imported twice in one scope — the module, or one
  function or class body (F811).  ``import a.b`` beside ``import a.c``
  imports two modules and is not a redefinition.

Usage::

    python tools/lint_imports.py src/repro tools benchmarks tests examples

Exits non-zero if any finding is reported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple, Union


#: Nodes that open a new scope: their bodies' imports bind there.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

ImportNode = Union[ast.Import, ast.ImportFrom]


def _scope_imports(scope: ast.AST) -> Iterator[List[ImportNode]]:
    """The import statements of ``scope``, then of every scope inside it,
    each in source order."""
    imports: List[ImportNode] = []
    inner: List[ast.AST] = []
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, _SCOPES):
            inner.append(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        else:
            pending.extend(ast.iter_child_nodes(node))
    yield sorted(imports, key=lambda node: node.lineno)
    for node in sorted(inner, key=lambda node: node.lineno):
        yield from _scope_imports(node)


def _bindings(node: ImportNode) -> Iterator[Tuple[str, str, bool]]:
    """(what, bound_name, is_explicit_reexport) per alias of one import.

    ``what`` names what is imported: ``import a.b`` and ``import a.c``
    both bind ``a`` but import two modules, so neither redefines the
    other.
    """
    for alias in node.names:
        if alias.name == "*":
            continue
        reexport = alias.asname is not None and alias.asname == alias.name
        if isinstance(node, ast.Import) and alias.asname is None:
            yield alias.name, alias.name.split(".")[0], reexport
        else:
            bound = alias.asname or alias.name
            yield bound, bound, reexport


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # the root of a dotted use: ``pkg.thing`` marks ``pkg`` used
            inner = node
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            if isinstance(inner, ast.Name):
                used.add(inner.id)
    # String annotations ("Kernel") count as uses.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            token = node.value.strip().strip("'\"")
            if token.isidentifier():
                used.add(token)
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return set()


def check_file(path: Path) -> Iterator[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    exported = _exported(tree)
    for imports in _scope_imports(tree):
        seen = {}
        for node in imports:
            for what, name, reexport in _bindings(node):
                first = seen.setdefault(what, node.lineno)
                if first != node.lineno:
                    yield (f"{path}:{node.lineno}: F811 redefinition of imported "
                           f"{name!r} (first at line {first})")
                if reexport or name in exported or name == "annotations":
                    continue
                if name not in used:
                    yield f"{path}:{node.lineno}: F401 {name!r} imported but unused"


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/repro/sim")]
    failures = 0
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            for finding in check_file(path):
                print(finding)
                failures += 1
    if failures:
        print(f"{failures} finding(s)", file=sys.stderr)
        return 1
    print("import hygiene clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
