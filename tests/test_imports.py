"""No module of the package or of the tests imports a name it never reads.

No linter is installed, so this AST check stands in for one.  A name
counts as read where it is loaded anywhere in the module or listed in its
``__all__``; ``from __future__`` imports are directives, not names.  The
package's ``__init__.py`` is skipped: its imports are the public surface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for path in [*(ROOT / "src" / "quatnev").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _imported(tree):
    """{bound name: line} of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    """Names the module loads, plus the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name} imports names it never reads: {unused}"
