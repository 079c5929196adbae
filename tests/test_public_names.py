"""No public name of the package lives on for the tests alone.

Each function, class and method that a module of ``src/quatnev`` defines
under a public name (no leading underscore) must be read: loaded as a name,
or read as an attribute of that name, in a package module outside the
definitions of that name, or imported by a module other than
``__init__.py``.  A re-export in ``__init__.py`` is the public surface, not
a reader.  The benchmark counts as a reader too: a name that appears as a
word in ``perfbench/*.py`` is read.  The benchmark's files are only read
here.

The names the benchmark alone reads are listed in ``BENCH_ONLY`` and
asserted.  Once the benchmark's tracer stops naming one, the rule fails on
it, and it can go.  Dataclass fields are out of scope:
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


def _definitions(body, owner=""):
    """(qualified name, node) of every def and class of a module body, and of its classes' bodies."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield owner + stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            yield from _definitions(stmt.body, f"{owner}{stmt.name}.")


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


# (module, name) → every definition of that name in the module, and their qualified names
PUBLIC = {}
QUALIFIED = {}
for module, tree in TREES.items():
    for qualified, stmt in _definitions(tree.body):
        if not stmt.name.startswith("_"):
            PUBLIC.setdefault((module, stmt.name), []).append(stmt)
            QUALIFIED.setdefault((module, stmt.name), set()).add(qualified)

# the public names that no package module reads: perfbench/*.py alone names them
BENCH_ONLY = {"admissible_radii", "characteristic", "n_bound_check", "proximity",
              "StemEval.log_abs_conj_point"}


def _read_by_the_package(module, name):
    own = PUBLIC[module, name]
    return any(name in _reads(tree, own)
               for other, tree in TREES.items() if other != "__init__.py")


@pytest.mark.parametrize("module, name", sorted(PUBLIC),
                         ids=[f"{module}:{name}" for module, name in sorted(PUBLIC)])
def test_every_public_name_is_read_by_the_package_or_its_benchmark(module, name):
    if name in BENCH_WORDS:
        return
    assert _read_by_the_package(module, name), (
        f"{module} defines {name}, which neither the package nor perfbench reads")


def test_the_names_only_the_benchmark_reads_are_listed():
    unread = {qualified for key in PUBLIC if not _read_by_the_package(*key)
              for qualified in QUALIFIED[key]}
    assert unread == BENCH_ONLY
    assert {qualified.rsplit(".", 1)[-1] for qualified in BENCH_ONLY} <= BENCH_WORDS
