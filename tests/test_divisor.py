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
    UnbalancedDivisor,
    N_integrated,
    N_via_unintegrated,
    analytic_characterization_check,
    angular_identity_check,
    angular_term,
    complex_roots,
    jensen_kernel,
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


def test_real_denominator_counts_its_own_roots_twice():
    """A real h has h^s = h², so 1/(q²+1)² has total order −4 on S_i."""
    f = SemiregularRational(RealPoly([1.0]), RealPoly([1.0, 0.0, 2.0, 0.0, 1.0]))
    spheres, m0 = entries_of(f)
    assert spheres == {(0.0, 1.0): -4}, f"unexpected divisor: {spheres}"
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


@pytest.mark.parametrize("k", [-565, -40, 40, 531])
def test_a_power_of_two_scale_leaves_the_divisor_unchanged(k):
    """2^k·g has the roots of g; at k = −565 and 531 (about 1e-170 and
    1e160) the symmetrization of a non-real side under- or overflows."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = rng.standard_normal((int(rng.integers(2, 7)), 4))
        d = rng.standard_normal((int(rng.integers(1, 4)), 4))
        g, h, gk, hk = LeftPoly(c), LeftPoly(d), LeftPoly(np.ldexp(c, k)), LeftPoly(np.ldexp(d, k))
        assert total_order_divisor(gk) == total_order_divisor(g)
        ref = total_order_divisor(SemiregularRational(g, h))
        for num, den in ((gk, h), (g, hk), (gk, hk)):
            assert total_order_divisor(SemiregularRational(num, den)) == ref


def test_slice_preserving_star_cube_keeps_an_exact_sphere_key():
    spheres, m0 = entries_of(star_power(RealPoly([1.0, 0.0, 1.0]), 3))
    assert spheres == {(0.0, 1.0): 6}, f"(q²+1)^{{*3}} has total order 6 on S_i: {spheres}"
    assert m0 == 0


# ---------------------------------------------------------------------------
# Complex root extraction
# ---------------------------------------------------------------------------

ROOT_EVAL_BUDGET = 150  # polynomial evaluations per complex_roots call
REPEATED_SPHERE_SEED = 5
REPEATED_SPHERE_CASES = 300
OVER_MERGED_SEED = 596


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


def test_polish_runs_once_per_distinct_cluster_size(monkeypatch):
    sizes = []
    polish = divisor._polish

    def counting_polish(chain, z, mult):
        sizes.append(mult)
        return polish(chain, z, mult)

    monkeypatch.setattr(divisor, "_polish", counting_polish)
    # (q²+1)²·(q²+4)·(q−3)³: clusters of sizes 2, 2, 1, 1 and 3
    c = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polypow([1.0, 0.0, 1.0], 2), [4.0, 0.0, 1.0]
    )
    c = np.polynomial.polynomial.polymul(c, np.polynomial.polynomial.polypow([-3.0, 1.0], 3))
    roots = complex_roots(RealPoly(c))
    assert sorted(sizes) == [1, 2, 3]
    assert sorted(m for _z, m in roots) == [1, 1, 2, 2, 3]


def test_a_polish_that_leaves_its_discs_falls_back_to_the_centroid(monkeypatch):
    monkeypatch.setattr(divisor, "_polish", lambda chain, z, mult: z + 1.0)
    roots = complex_roots(RealPoly([1.0, 0.0, 1.0]))
    assert [m for _z, m in roots] == [1, 1]
    for (z, _m), want in zip(roots, (-1j, 1j)):
        assert abs(z - want) <= 1e-12, roots


def test_coincident_approximants_share_one_component():
    z = np.array([0.5, 0.5, 2.0 + 1.0j, 2.0 - 1.0j])
    radii, labels = divisor._inclusion_components(z, np.full(4, 1e-15))
    assert np.isfinite(radii).all()
    assert labels.tolist() == [0, 0, 2, 3]


def _planted_repeated_spheres(rng, max_degree):
    """A star product of linear factors on 2–6 well-separated nonreal
    spheres, each taken once or twice at independent points of the sphere,
    times a real linear factor half the time, redrawn until its degree is
    at most max_degree.  Returns f and the planted orders {(re, im): k}."""
    while True:
        count = int(rng.integers(2, 7))
        reps = [int(k) for k in rng.integers(1, 3, size=count)]
        real = bool(rng.random() < 0.5)
        if sum(reps) + real <= max_degree:
            break
    spheres = []
    while len(spheres) < count:
        re, im = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0))
        if all(math.hypot(re - a, im - b) >= 0.25 for a, b in spheres):
            spheres.append((re, im))
    roots = []
    for (re, im), k in zip(spheres, reps):
        for _ in range(k):
            direction = rng.standard_normal(3)
            roots.append([re, *(im * direction / np.linalg.norm(direction))])
    planted = dict(zip(spheres, reps))
    if real:
        x = float(rng.uniform(-2.0, 2.0))
        roots.append([x, 0.0, 0.0, 0.0])
        planted[(x, 0.0)] = 1
    f = RealPoly([1.0])
    for i in rng.permutation(len(roots)):
        f = star_mul(f, LeftPoly([[-c for c in roots[i]], [1.0, 0.0, 0.0, 0.0]]))
    return f, planted


def _recovered_orders_match(f, planted):
    spheres, m0 = entries_of(f)
    got, want = sorted(spheres.items()), sorted(planted.items())
    if m0 or len(got) != len(want) or sum(spheres.values()) != f.degree:
        return False
    return all(
        gk == wk and math.hypot(gre - wre, gim - wim) <= 1e-6 * (1.0 + math.hypot(wre, wim))
        for ((gre, gim), gk), ((wre, wim), wk) in zip(got, want)
    )


def test_repeated_sphere_orders_are_recovered():
    rng = np.random.default_rng(REPEATED_SPHERE_SEED)
    wrong = []
    for case in range(REPEATED_SPHERE_CASES):
        f, planted = _planted_repeated_spheres(rng, max_degree=9)
        if not _recovered_orders_match(f, planted):
            wrong.append((case, f.degree, entries_of(f)[0], planted))
    assert not wrong, f"{len(wrong)} of {REPEATED_SPHERE_CASES} divisors wrong: {wrong[:3]}"


@pytest.mark.xfail(
    strict=True,
    reason="the inclusion discs of a double sphere and a nearby root can overlap, "
    "and their component then comes back as one root of the summed order; this "
    "hits about 1 input in 300 of f-degree 10–13",
)
def test_a_double_sphere_beside_a_real_root_at_degree_ten_stays_apart():
    f, planted = _planted_repeated_spheres(np.random.default_rng(OVER_MERGED_SEED), max_degree=13)
    assert f.degree >= 10
    assert _recovered_orders_match(f, planted), entries_of(f)[0]


# Case 1758 of _planted_repeated_spheres(np.random.default_rng(2), max_degree=13):
# spheres of order 2 at (0.862, 1.654), (1.172, 1.480), (1.773, 1.466),
# (1.821, 0.999) and (1.906, 0.719), and one of order 1 at (0.703, 0.726).  The
# inclusion discs of three double spheres, their conjugates and the conjugate of
# a fourth merge into one component of 14 roots below the real axis, so that
# component and the fourth sphere above it have no conjugate partner.
UNPAIRED_CLUSTER_INPUT = [
    [344.8914846433013, 608.3023346375942, -490.698162806103, -826.5412764429905],
    [-1637.1304543950673, -2503.127186107522, 2590.1265912142453, 3243.288646078808],
    [3052.4063837867475, 4931.496946627747, -6373.368990108413, -6543.190752347919],
    [-2960.884991009719, -5808.612216537961, 10117.205126205776, 8718.73825217109],
    [1337.0670497980095, 4177.835854548413, -11274.076533582818, -8108.385355012164],
    [374.603242557165, -1589.9470907583336, 8937.582435989734, 5260.200421737988],
    [-1079.5332127580862, 14.046451833443598, -4993.98382876207, -2340.888762067668],
    [855.6650284160111, 295.0357508181165, 1922.2025486900623, 694.827596546544],
    [-386.75433548498427, -141.4135937221724, -486.48468033092627, -131.44657176628237],
    [104.90631961883884, 29.78782158053844, 73.22313761758227, 14.665861133173156],
    [-15.773538114774695, -2.484120941420783, -4.996355916195327, -0.8040820045728421],
    [1.0, 0.0, 0.0, 0.0],
]


def test_an_unpaired_root_cluster_is_counted_once_and_the_divisor_refused():
    f = LeftPoly(UNPAIRED_CLUSTER_INPUT)
    roots = complex_roots(f.symmetrize())
    assert sum(m for _z, m in roots) == 2 * f.degree, roots
    unpaired = [(z, m) for z, m in roots if (z.conjugate(), m) not in roots]
    assert sorted(m for _z, m in unpaired) == [2, 14], unpaired
    with pytest.raises(UnbalancedDivisor, match="orders sum to 5 on a polynomial of degree 11"):
        total_order_divisor(f)


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
