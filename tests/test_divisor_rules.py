"""Each divisor rule of the package is written in one place.

Two rules decide what a divisor is, and each must have one copy: the
1e-12·r test that raises BoundaryDivisor, and the merge of spheres that
agree within _SPHERE_MERGE_TOL.  A second copy of either could drift from
the first when the rule changes, so these checks read the source with
``ast`` and name every function that holds one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quatnev"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _scoped(node, scope=()):
    """(qualified name of the enclosing function or class, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        yield from _scoped(child, inner)


def _where(matches):
    """module:scope of every node of the package that matches."""
    return sorted({f"{module}:{scope}"
                   for module, tree in TREES.items()
                   for scope, node in _scoped(tree) if matches(node)})


def _raises_boundary(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "BoundaryDivisor"


def test_boundary_divisor_is_raised_in_one_function():
    assert _where(_raises_boundary) == ["divisor:_refuse_boundary"]


def test_the_sphere_merge_tolerance_is_read_by_build_alone():
    def reads_tolerance(node):
        return (isinstance(node, ast.Name) and node.id == "_SPHERE_MERGE_TOL"
                and isinstance(node.ctx, ast.Load))

    assert _where(reads_tolerance) == ["divisor:SphereDivisor.build"]
