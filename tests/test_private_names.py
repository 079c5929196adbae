"""No private module-level name of the package lives on for the tests alone.

Each function, class and constant that a module of ``src/quatnev`` defines
at module level under a ``_name`` must be read by the package: loaded in
its own module outside its definition, imported from that module by
another (tests/test_imports.py checks that an import is read), or read as
an attribute of the module.  Dunder names are Python's, not the package's.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quatnev"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _defined(stmt):
    """Private names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _loads(node):
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _read_from(module):
    """Names other modules import from ``module`` or read as its attributes."""
    names = set()
    for other, tree in TREES.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_read_in_the_package(path):
    body = TREES[path.stem].body
    elsewhere = _read_from(path.stem)
    unread = [
        name
        for index, stmt in enumerate(body)
        for name in _defined(stmt)
        if name not in elsewhere
        and not any(i != index and name in _loads(other) for i, other in enumerate(body))
    ]
    assert not unread, f"{path.name} defines names the package never reads: {unread}"
