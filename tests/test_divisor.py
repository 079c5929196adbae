"""Total-order divisors, the per-sphere boundary kernel, and counting functions.

The counting identities are checked by dual routes: the integrated form
against the closed-form unintegrated representation, and the angular term
against both of its integral representations.  Random-divisor property
tests drive all routes through the same gate.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatnev import divisor
from quatnev.quat_core import Quaternion, SliceComplex
from quatnev.star_poly import (
    LeftPoly,
    RealPoly,
    SemiregularRational,
    as_rational,
    star_mul,
    star_power,
)
from quatnev.divisor import (
    BoundaryDivisor,
    SphereDivisor,
    N_integrated,
    N_via_unintegrated,
    a_count,
    a_re_count,
    analytic_characterization_check,
    angular_identity_check,
    angular_term,
    complex_roots,
    jensen_kernel,
    n_count,
    signed_kernel_sum,
    total_order_divisor,
)

IDENTITY_TOL = 1e-9
SLACK_TOL = 1e-12

J_GOLDEN_I_AT_2 = 1.630647180560  # log 2 + 15/16 for the unit imaginary sphere at R = 2


# ---------------------------------------------------------------------------
# Divisor extraction
# ---------------------------------------------------------------------------


def entries_of(f):
    d = total_order_divisor(f)
    return {(sphere.re, sphere.im): ordt for sphere, ordt in d.entries}, d.origin_order


def test_divisor_of_q_squared_plus_one():
    spheres, m0 = entries_of(RealPoly([1.0, 0.0, 1.0]))
    assert spheres == {(0.0, 1.0): 2}, f"q²+1 must carry S_i with total order 2: {spheres}"
    assert m0 == 0


def test_divisor_of_double_real_root():
    spheres, m0 = entries_of(RealPoly([0.25, -1.0, 1.0]))
    assert spheres == {(0.5, 0.0): 2}, f"(q−1/2)² carries the real point 1/2 twice: {spheres}"
    assert m0 == 0


def test_divisor_of_linear_nonreal():
    f = LeftPoly([[-0.5, -0.7, 0, 0], [1, 0, 0, 0]])
    spheres, m0 = entries_of(f)
    assert spheres == {(0.5, 0.7): 1}
    assert m0 == 0


def test_divisor_of_rational_with_poles():
    f = SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.25, -1.0, 1.0]))
    spheres, m0 = entries_of(f)
    assert spheres == {(0.0, 1.0): 2, (0.5, 0.0): -2}, f"unexpected divisor: {spheres}"
    assert m0 == 0


def test_origin_order_enters_divisor():
    f = LeftPoly([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    _, m0 = entries_of(f)
    assert m0 == 2


def test_star_product_divisors_add():
    a = LeftPoly([[0, -1, 0, 0], [1, 0, 0, 0]])            # q − i
    b = LeftPoly([[0, 0, -1, 0], [1, 0, 0, 0]])            # q − j
    spheres, _ = entries_of(star_mul(a, b))
    assert spheres == {(0.0, 1.0): 2}, f"(q−i)*(q−j) has total order 2 on S_i: {spheres}"


def test_sphere_divisor_json_roundtrip():
    d = SphereDivisor.build([(SliceComplex(0.5, 0.7), 1), (SliceComplex(1.0, 0.0), -2)], 3)
    back = SphereDivisor.from_json(d.to_json())
    assert back.origin_order == 3
    assert {(sphere.re, sphere.im, ordt) for sphere, ordt in back.entries} == {
        (0.5, 0.7, 1),
        (1.0, 0.0, -2),
    }


def test_slice_preserving_star_cube_keeps_an_exact_sphere_key():
    spheres, m0 = entries_of(star_power(RealPoly([1.0, 0.0, 1.0]), 3))
    assert spheres == {(0.0, 1.0): 6}, f"(q²+1)^{{*3}} has total order 6 on S_i: {spheres}"
    assert m0 == 0


# ---------------------------------------------------------------------------
# Complex root extraction
# ---------------------------------------------------------------------------

ROOT_EVAL_BUDGET = 300  # polynomial evaluations per complex_roots call


def test_complex_roots_returns_exact_keys():
    assert complex_roots(RealPoly([1.0, 0.0, 1.0])) == [(-1j, 1), (1j, 1)]
    assert complex_roots(RealPoly([0.25, -1.0, 1.0])) == [(0.5 + 0j, 2)]


def _assert_closed_and_complete(roots, degree):
    assert sum(m for _z, m in roots) == degree
    for z, m in roots:
        if z.imag != 0.0:
            assert (z.conjugate(), m) in roots, f"{z} has no exact conjugate partner"


def _planted_symmetrization(rng, count):
    """(q − α₁) * … * (q − α_count) with α_k on well-separated nonreal
    spheres; returns its symmetrization and the spheres as (re, im)."""
    spheres = []
    while len(spheres) < count:
        re, im = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0))
        if all(math.hypot(re - a, im - b) >= 0.25 for a, b in spheres):
            spheres.append((re, im))
    f = RealPoly([1.0])
    for re, im in spheres:
        direction = rng.standard_normal(3)
        direction *= im / np.linalg.norm(direction)
        f = star_mul(f, LeftPoly([[-re, *(-direction)], [1.0, 0.0, 0.0, 0.0]]))
    return f.symmetrize(), spheres


@pytest.fixture
def polyval_count(monkeypatch):
    """Counts the polynomial evaluations the root layer makes."""
    calls = [0]

    def counting_polyval(x, c, tensor=True):
        calls[0] += 1
        return np.polynomial.polynomial.polyval(x, c, tensor)

    counted = SimpleNamespace(polyder=np.polynomial.polynomial.polyder, polyval=counting_polyval)
    monkeypatch.setattr(divisor, "npoly", counted)
    return calls


def _roots_within_budget(calls, p):
    calls[0] = 0
    roots = complex_roots(p)
    assert calls[0] <= ROOT_EVAL_BUDGET, (
        f"{calls[0]} polynomial evaluations for degree {p.degree}"
    )
    _assert_closed_and_complete(roots, p.degree)
    return roots


@pytest.mark.parametrize("power", [4, 6])
def test_multiple_roots_stay_within_the_evaluation_budget(polyval_count, power):
    p = RealPoly(np.polynomial.polynomial.polypow([1.0, 0.0, 1.0], power))
    roots = _roots_within_budget(polyval_count, p)
    assert [m for _z, m in roots] == [power, power]
    for z, _m in roots:
        assert abs(abs(z.imag) - 1.0) <= 1e-8 and abs(z.real) <= 1e-8


def _six_decades():
    """Roots of modulus 1e-3 to 1e3 and the real polynomial they span."""
    planted = [10.0**k * np.exp(1j * (0.4 + 0.3 * k)) for k in range(-3, 4)]
    planted += [z.conjugate() for z in planted] + [-5e-3, 700.0]
    return planted, RealPoly(np.polynomial.polynomial.polyfromroots(planted).real)


def test_root_moduli_over_six_decades_stay_within_the_evaluation_budget(polyval_count):
    _planted, p = _six_decades()
    _roots_within_budget(polyval_count, p)


@pytest.mark.xfail(
    reason="cluster validation measures |p^(j)(z)| against Σ|c_i|·max(1,|z|)^i, "
    "which does not shrink with |z| below 1, so roots near 1e-3 fail it until "
    "the clustering radius reaches 1e-2 and merges them",
)
def test_root_moduli_over_six_decades_are_all_recovered():
    planted, p = _six_decades()
    roots = complex_roots(p)
    for z in planted:
        assert min(abs(r - z) for r, _m in roots) <= 1e-8 * abs(z), f"lost the root {z}"


def test_planted_symmetrizations_stay_within_the_evaluation_budget(polyval_count):
    rng = np.random.default_rng(5)
    for case in range(50):
        count = 2 + case % 11  # symmetrization degree 4–24
        p, spheres = _planted_symmetrization(rng, count)
        roots = _roots_within_budget(polyval_count, p)
        got = sorted((z.real, z.imag) for z, m in roots if z.imag > 0.0 and m == 1)
        assert len(got) == count and len(roots) == 2 * count, f"case {case}: {roots}"
        for (gre, gim), (wre, wim) in zip(got, sorted(spheres)):
            assert math.hypot(gre - wre, gim - wim) <= 1e-8 * (1.0 + math.hypot(wre, wim)), (
                f"case {case}: recovered ({gre}, {gim}) for planted ({wre}, {wim})"
            )


# ---------------------------------------------------------------------------
# Boundary kernel
# ---------------------------------------------------------------------------


def test_kernel_golden_value():
    got = jensen_kernel(SliceComplex(0.0, 1.0), 2.0)
    assert abs(got - J_GOLDEN_I_AT_2) <= 1e-9, f"J(i, 2) = {got}"
    assert abs(got - (math.log(2.0) + 15.0 / 16.0)) <= 1e-12


@given(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=200)
def test_kernel_vanishes_on_its_own_radius(xi, eta):
    s = SliceComplex(xi, eta)
    if s.modulus() < 1e-3:
        return
    got = jensen_kernel(s, s.modulus())
    assert abs(got) <= 1e-12, f"J(ζ, |ζ|) = {got} ≠ 0 for ζ = {s}"


def test_kernel_growth_sign_follows_the_angle():
    # purely imaginary spheres push the kernel up like +r²/4, real ones down
    assert jensen_kernel(SliceComplex(0.0, 1.0), 50.0) > 100.0
    assert jensen_kernel(SliceComplex(1.0, 0.0), 50.0) < -100.0


def test_signed_kernel_sum_conventions():
    d = SphereDivisor.build(
        [(SliceComplex(0.0, 1.0), 2), (SliceComplex(0.5, 0.0), 1)], 0
    )
    R = 2.0
    corrected = signed_kernel_sum(d, R, "corrected")
    doubled = signed_kernel_sum(d, R, "doubled")
    j_im = jensen_kernel(SliceComplex(0.0, 1.0), R)
    assert abs((doubled - corrected) - 2 * j_im) <= 1e-12, (
        "factor-2 convention must double exactly the nonreal-sphere share"
    )


def test_boundary_sphere_raises():
    d = SphereDivisor.build([(SliceComplex(0.0, 1.0), 1)], 0)
    with pytest.raises(BoundaryDivisor):
        signed_kernel_sum(d, 1.0, "corrected")


# ---------------------------------------------------------------------------
# Counting functions: step counts and dual-route identities
# ---------------------------------------------------------------------------


def random_divisor(rng) -> SphereDivisor:
    pairs = []
    for _ in range(int(rng.integers(1, 6))):
        xi = float(rng.uniform(-1.5, 1.5))
        eta = float(rng.uniform(0.0, 1.5))
        if math.hypot(xi, eta) < 0.05:
            xi += 0.2
        ordt = int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1)
        pairs.append((SliceComplex(xi, eta), ordt))
    return SphereDivisor.build(pairs, int(rng.integers(0, 3)))


def test_n_count_is_a_step_function():
    d = SphereDivisor.build(
        [(SliceComplex(0.0, 1.0), 2), (SliceComplex(1.2, 0.0), 1)], 1
    )
    assert n_count(d, "zero", 0.5) == 1          # origin order only
    assert n_count(d, "zero", 1.1) == 3
    assert n_count(d, "zero", 2.0) == 4
    assert n_count(d, "pole", 2.0) == 0


def test_a_count_and_a_re_count_cut_by_modulus_and_real_part():
    d = SphereDivisor.build(
        [(SliceComplex(0.6, 0.8), 1), (SliceComplex(0.0, 2.0), 3)], 0
    )
    assert a_count(d, "zero", 3.0, 1.5) == 4        # both spheres qualify
    assert a_count(d, "zero", 3.0, 0.5) == 3        # |Re ζ| = 0.6 cut away
    assert a_count(d, "zero", 1.5, 1.5) == 1        # |ζ| = 2 cut away
    got = a_re_count(d, "zero", 3.0, 1.5)
    assert abs(got - (0.6**2 * 1 + 0.0 * 3)) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_integrated_counting_dual_routes(seed):
    rng = np.random.default_rng(seed)
    d = random_divisor(rng)
    for r in (0.7, 1.3, 2.6):
        for side in ("zero", "pole"):
            direct = N_integrated(d, side, r)
            via = N_via_unintegrated(d, side, r)
            assert abs(direct - via) <= IDENTITY_TOL * (1.0 + abs(direct)), (
                f"seed {seed} side {side} r {r}: {direct} ≠ {via}"
            )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_angular_term_dual_representations(seed):
    rng = np.random.default_rng(seed)
    d = random_divisor(rng)
    for r in (0.7, 1.3, 2.6):
        for side in ("zero", "pole"):
            err1, err2 = angular_identity_check(d, side, r)
            assert err1 <= IDENTITY_TOL, f"seed {seed}: first representation off by {err1}"
            assert err2 <= IDENTITY_TOL, f"seed {seed}: second representation off by {err2}"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_analytic_characterization_and_lower_bound(seed):
    rng = np.random.default_rng(seed)
    d = random_divisor(rng)
    for r in (0.7, 1.3, 2.6):
        for side in ("zero", "pole"):
            err1, err2, slack = analytic_characterization_check(d, side, r)
            assert err1 <= IDENTITY_TOL, f"seed {seed}: equality route 1 off by {err1}"
            assert err2 <= IDENTITY_TOL, f"seed {seed}: equality route 2 off by {err2}"
            assert slack >= -SLACK_TOL, f"seed {seed}: lower-bound slack {slack} < 0"


def test_angular_term_is_nonpositive():
    rng = np.random.default_rng(123)
    for _ in range(40):
        d = random_divisor(rng)
        # restrict to zero-side-only divisors so the sign claim is clean
        pos = [(sphere, abs(ordt)) for sphere, ordt in d.entries]
        d2 = SphereDivisor.build(pos, d.origin_order)
        val = angular_term(d2, "zero", 3.0)
        assert val <= 1e-12, f"angular term must be ≤ 0, got {val}"


def test_integrated_counting_equals_kernel_sum():
    """N is the per-sphere kernel sum plus the origin term, route-for-route."""
    d = SphereDivisor.build([(SliceComplex(0.0, 1.0), 2)], 0)
    assert abs(N_integrated(d, "zero", 2.0) - 2 * jensen_kernel(SliceComplex(0.0, 1.0), 2.0)) <= 1e-12
    d2 = SphereDivisor.build([(SliceComplex(0.5, 0.7), 1)], 2)
    want = jensen_kernel(SliceComplex(0.5, 0.7), 2.0) + 2 * math.log(2.0)
    assert abs(N_integrated(d2, "zero", 2.0) - want) <= 1e-12
