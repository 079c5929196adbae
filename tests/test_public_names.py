"""No public name of the package lives on for the tests alone.

Each function, class and method that a module of ``src/quatnev`` defines
under a public name (no leading underscore) must be read: loaded as a name,
or read as an attribute of that name, in a package module outside the
definitions of that name, or imported by a module other than
``__init__.py``.  A re-export in ``__init__.py`` is the public surface, not
a reader.  The benchmark counts as a reader too: a name that appears as a
word in ``perfbench/*.py`` is read.  The benchmark's files are only read
here.

Today these names are read by the benchmark alone: ``SphereSampler``
(with its ``chunk`` and ``sample``), ``StemEval.log_abs_conj_point``,
``n_bound_check``, ``proximity``, ``characteristic`` and
``admissible_radii``.  Once the benchmark's tracer stops naming them, this
rule fails on them, and they can go.  Dataclass fields are out of scope:
``dataclasses.asdict`` reads them.  Functions nested in functions are
locals, not names of a module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quatnev"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
BENCH_WORDS = {word for path in sorted((ROOT / "perfbench").glob("*.py"))
               for word in re.findall(r"\w+", path.read_text())}


def _definitions(body):
    """Every def and class of a module body, and of its classes' bodies."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _definitions(stmt.body)


def _reads(node, skip):
    """Names loaded, attributes read and names imported below node, outside skip."""
    if node in skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


# (module, name) → every definition of that name in the module
PUBLIC = {}
for module, tree in TREES.items():
    for stmt in _definitions(tree.body):
        if not stmt.name.startswith("_"):
            PUBLIC.setdefault((module, stmt.name), []).append(stmt)


@pytest.mark.parametrize("module, name", sorted(PUBLIC),
                         ids=[f"{module}:{name}" for module, name in sorted(PUBLIC)])
def test_every_public_name_is_read_by_the_package_or_its_benchmark(module, name):
    if name in BENCH_WORDS:
        return
    own = PUBLIC[module, name]
    read = any(name in _reads(tree, own)
               for other, tree in TREES.items() if other != "__init__.py")
    assert read, f"{module} defines {name}, which neither the package nor perfbench reads"
