"""Each divisor rule of the package is written in one place.

Three rules decide what a divisor is, and each must have one copy: the
snap of a root within _REAL_SNAP of the real axis onto it, the 1e-12·r
test that raises BoundaryDivisor, and the merge of spheres that agree
within _SPHERE_MERGE_TOL.  A fourth decides when |f(q)| counts as
zero, NEAR_ZERO: each function class answers it in its own pole_tol and
near_zero_log, so the Monte-Carlo engine in sph_integral knows no
function class and imports from quat_core alone, and spherical_conjugate
decides through those guards too, holding no tolerance of its own.
Every kernel term of a sphere is read in the ratio r/|ζ| by one helper,
_sphere_ratio, and the Jensen closure is formed in one function,
_jensen_closure.  verify_fmt reads all three First Main Theorem forms off
one _mean_rows batch.  A second copy of a rule could drift from the
first when the rule changes, so these checks read the source with
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


def _raises(name):
    def matches(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == name
    return matches


def test_boundary_divisor_is_raised_in_one_function():
    assert _where(_raises("BoundaryDivisor")) == ["divisor:_refuse_boundary"]


def _calls(name):
    def matches(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)
    return matches


def test_every_kernel_term_is_read_through_one_ratio_helper():
    """_sphere_ratio gives t = |ζ|/r, ρ = r/|ζ| and the direction cosines of ζ.

    _sphere_weight forms w = (t² − ρ²)/4 from them for the three kernel
    readers and raises the kernel's OverflowError; the Jensen closure
    reads the ratio itself, squaring only the t or ρ its sphere's term
    needs.  None of divisor.py forms |ζ|⁴ (a fourth power or a mod4); the
    other OverflowErrors of divisor.py are the underflowed symmetrization
    and the root iteration.
    """
    def fourth_power(node):
        return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                 and isinstance(node.right, ast.Constant) and node.right.value == 4)
                or (isinstance(node, ast.Name) and node.id == "mod4"))

    assert set(_where(_calls("_sphere_ratio"))) == {
        "divisor:_sphere_weight", "nevanlinna:_jensen_closure"}
    assert set(_where(_calls("_sphere_weight"))) == {
        "divisor:jensen_kernel", "divisor:N_via_unintegrated", "divisor:angular_term"}
    assert [w for w in _where(_raises("OverflowError")) if w.startswith("divisor:")] == [
        "divisor:_sphere_weight", "divisor:complex_roots", "divisor:total_order_divisor"]
    assert [w for w in _where(fourth_power) if w.startswith("divisor:")] == []


def test_the_jensen_closure_is_formed_in_one_function():
    """verify-jensen and the arbiter read one closure, and n_bound_check the form-3 rows."""
    def builds_report(node):
        return _calls("JensenReport")(node) or _calls("mean_columns")(node)

    assert [w for w in _where(builds_report) if w.startswith("nevanlinna:")] == [
        "nevanlinna:_jensen_closure"]
    assert "nevanlinna:n_bound_check" in _where(_calls("verify_fmt"))


def test_verify_fmt_reads_every_form_off_one_batch():
    fmt = next(node for node in ast.walk(TREES["nevanlinna"])
               if isinstance(node, ast.FunctionDef) and node.name == "verify_fmt")
    calls = [node.func.id for node in ast.walk(fmt)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("_mean_rows") == 1
    assert not {"mean_batch", "mean_columns"} & set(calls)


def test_the_sphere_merge_tolerance_is_read_by_build_alone():
    def reads_tolerance(node):
        return (isinstance(node, ast.Name) and node.id == "_SPHERE_MERGE_TOL"
                and isinstance(node.ctx, ast.Load))

    assert _where(reads_tolerance) == ["divisor:SphereDivisor.build"]


def test_the_real_axis_snap_is_read_by_complex_roots_alone():
    def reads_snap(node):
        return (isinstance(node, ast.Name) and node.id == "_REAL_SNAP"
                and isinstance(node.ctx, ast.Load))

    assert _where(reads_snap) == ["divisor:complex_roots"]


def test_near_zero_is_read_by_the_guard_methods_alone():
    def reads_near_zero(node):
        return (isinstance(node, ast.Name) and node.id == "NEAR_ZERO"
                and isinstance(node.ctx, ast.Load))

    assert _where(reads_near_zero) == [
        "star_poly:LeftPoly.near_zero_log",
        "star_poly:SemiregularRational.near_zero_log",
        "star_poly:SemiregularRational.pole_tol",
    ]


def test_star_poly_writes_its_small_tolerances_in_two_places():
    """NEAR_ZERO and the Dieudonné test of GL2H hold every float literal of
    star_poly in (0, 1e-9]; f^s is real by construction and tests nothing."""
    def small_float(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < node.value <= 1e-9)

    assert [w for w in _where(small_float) if w.startswith("star_poly:")] == [
        "star_poly:", "star_poly:GL2H.require_invertible"]


def test_sph_integral_imports_from_quat_core_alone():
    imported = set()
    for node in ast.walk(TREES["sph_integral"]):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("quatnev")):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("quatnev"))
    assert imported == {"quat_core"}
