"""Total-order divisors, the per-sphere boundary kernel, and counting functions.

The counting identities are checked by dual routes: the integrated form
against the closed-form unintegrated representation, and the angular term
against both of its integral representations.  Random-divisor property
tests drive all routes through the same gate.

The repeated-sphere battery, 2 000 inputs of _planted_repeated_spheres at
max_degree 13 for each of the seeds 1–12, is too slow for the suite (about
40 s).  Run it by command; it prints, for each seed, the inputs whose
divisor is wrong or refused, and the planted and recovered orders of each
wrong one:

    PYTHONPATH=src python tests/test_divisor.py
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatnev import divisor
from quatnev.quat_core import SliceComplex
from quatnev.star_poly import (
    LeftPoly,
    RealPoly,
    SemiregularRational,
    star_mul,
    star_power,
)
from quatnev.divisor import (
    BoundaryDivisor,
    SphereDivisor,
    UnbalancedDivisor,
    ZeroCenter,
    ZeroPolynomial,
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


def test_build_merges_a_sphere_into_the_earlier_one_within_tolerance():
    ref = SliceComplex(0.6, 0.8)
    near = SliceComplex(0.6 + 1e-9, 0.8)  # within 1e-9·(1 + |ζ|) of ref
    assert SphereDivisor.build([(ref, 2), (near, 1)]).entries == ((ref, 3),)
    assert SphereDivisor.build([(near, 1), (ref, 2)]).entries == ((near, 3),)
    assert SphereDivisor.build([(ref, 1), (SliceComplex(0.6, 0.8), 2)]).entries == ((ref, 3),)


def test_build_drops_cancelled_orders_and_keeps_distinct_spheres():
    ref = SliceComplex(0.6, 0.8)
    cancelled = SphereDivisor.build([(ref, 2), (SliceComplex(0.6, 0.8 + 1e-10), -2)], 1)
    assert cancelled == SphereDivisor((), 1)
    apart = SliceComplex(0.6 + 1e-6, 0.8)
    d = SphereDivisor.build([(apart, -1), (ref, 1)])
    assert d.entries == ((ref, 1), (apart, -1)), "spheres 1e-6 apart stay apart, sorted by modulus"


def test_a_real_factor_shared_by_numerator_and_denominator_cancels():
    f = SemiregularRational(RealPoly([4.0, 0.0, 5.0, 0.0, 1.0]), RealPoly([1.0, 0.0, 1.0]))
    spheres, m0 = entries_of(f)  # (q² + 1)(q² + 4) / (q² + 1)
    assert spheres == {(0.0, 2.0): 2}, f"only S_2i is left: {spheres}"
    assert m0 == 0


@pytest.mark.parametrize("h", [[[0.5, 0.2, 0.1, 0], [1, 0, 0, 0]],
                               [[0.2, -0.4, 0.1, 0.3], [0.1, 0.2, 0, 0], [1, 0, 0.5, 0]]],
                         ids=["linear", "quadratic"])
def test_a_quaternion_factor_shared_by_numerator_and_denominator_cancels(h):
    """(g*h)*h^{-*} has the divisor of g: the spheres of h cancel between the two root finds."""
    g = LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]])
    h = LeftPoly(h)
    got = total_order_divisor(SemiregularRational(star_mul(g, h), h))
    want = total_order_divisor(g)
    assert got.origin_order == want.origin_order
    assert [k for _s, k in got.entries] == [k for _s, k in want.entries]
    for (s, _k), (t, _l) in zip(got.entries, want.entries):
        assert math.hypot(s.re - t.re, s.im - t.im) <= 1e-12, f"{s} ≠ {t}"


@pytest.mark.parametrize("f", [RealPoly([1.0, 0.0, 1.0]),
                               LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3]])],
                         ids=["realpoly", "leftpoly"])
def test_a_polynomial_divisor_constructs_no_rational(f, monkeypatch):
    made = []
    original = SemiregularRational.__init__

    def counting(self, *args):
        made.append(args)
        original(self, *args)

    monkeypatch.setattr(SemiregularRational, "__init__", counting)
    total_order_divisor(f)
    assert made == []


@pytest.mark.parametrize("k", [-17, 0, 17], ids=["den-1e-5", "den-1", "den-1e5"])
def test_a_quaternion_denominator_is_rooted_through_the_den_s_it_holds(k, monkeypatch):
    """The pole side reads den_s, not a second symmetrization of h, and has
    the bits of the roots of a power-of-two copy of h, symmetrized."""
    g = LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1, 0, 0, 0]])
    h = LeftPoly(np.ldexp([[0.8, 1.1, -0.2, 0.5], [0.1, 0.4, 0.3, 0.0], [1, 0, 0, 0.2]], k))
    f = SemiregularRational(g, h)
    symmetrized = []
    original = LeftPoly.symmetrize

    def counting(self):
        symmetrized.append(self.coeffs)
        return original(self)

    monkeypatch.setattr(LeftPoly, "symmetrize", counting)
    d = total_order_divisor(f)
    monkeypatch.undo()
    assert len(symmetrized) == 1, "only the numerator is symmetrized"

    def scaled(p):
        return LeftPoly(np.ldexp(p.coeffs, -math.frexp(np.abs(p.coeffs).max())[1]))

    assert np.array_equal(symmetrized[0], scaled(g).coeffs), "the numerator, at a power-of-two scale"
    want = sorted((z.real, z.imag, -m) for z, m in complex_roots(scaled(h).symmetrize()) if z.imag > 0.0)
    got = sorted((s.re, s.im, m) for s, m in d.entries if m < 0)
    assert got == want


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
ABERTH_START_SEED = 31
ABERTH_STEP_BUDGET = 3  # Horner passes per Aberth–Ehrlich call from the companion start
EQUIVARIANCE_SEED = 30


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
def eval_count(monkeypatch):
    """Counts the polynomial evaluations the root layer makes: each row of a
    stacked Horner pass (p, its rounding bound, p′) is one evaluation."""
    calls = [0]
    horner = divisor._horner

    def counting_horner(rows, z):
        calls[0] += rows.shape[0]
        return horner(rows, z)

    monkeypatch.setattr(divisor, "_horner", counting_horner)
    return calls


def _roots_within_budget(calls, p):
    calls[0] = 0
    roots = complex_roots(p)
    assert 0 < calls[0] <= ROOT_EVAL_BUDGET, (
        f"{calls[0]} polynomial evaluations for degree {p.degree}"
    )
    _assert_closed_and_complete(roots, p.degree)
    return roots


@pytest.mark.parametrize("power", [4, 6])
def test_multiple_roots_stay_within_the_evaluation_budget(eval_count, power):
    p = RealPoly(np.polynomial.polynomial.polypow([1.0, 0.0, 1.0], power))
    roots = _roots_within_budget(eval_count, p)
    assert [m for _z, m in roots] == [power, power]
    for z, _m in roots:
        assert abs(abs(z.imag) - 1.0) <= 1e-8 and abs(z.real) <= 1e-8


_moduli = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
_components = st.floats(min_value=-10.0, max_value=10.0)


@given(
    st.lists(st.tuples(_components, _components), min_size=1, max_size=26),
    st.lists(st.tuples(_moduli, st.floats(min_value=-math.pi, max_value=math.pi)),
             min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_stacked_horner_has_polyval_bits(lower, points):
    """p(z), the rounding bound and p′(z) of one stacked pass equal polyval's,
    signed zeros included, for monic complex c of degree 1–26 and |z| in
    [1e-3, 1e3]."""
    npoly = np.polynomial.polynomial
    c = np.array([complex(re, im) for re, im in lower] + [1.0])
    z = np.array([m * complex(math.cos(t), math.sin(t)) for m, t in points])
    pz, bound, dpz = divisor._horner(divisor._eval_rows(c, npoly.polyder(c)), z)
    eps16 = 16.0 * np.finfo(float).eps
    assert pz.tobytes() == npoly.polyval(z, c).tobytes()
    assert bound.tobytes() == (eps16 * npoly.polyval(np.abs(z), np.abs(c))).tobytes()
    assert dpz.tobytes() == npoly.polyval(z, npoly.polyder(c)).tobytes()


def _six_decades():
    """Roots of modulus 1e-3 to 1e3 and the real polynomial they span."""
    planted = [10.0**k * np.exp(1j * (0.4 + 0.3 * k)) for k in range(-3, 4)]
    planted += [z.conjugate() for z in planted] + [-5e-3, 700.0]
    return planted, RealPoly(np.polynomial.polynomial.polyfromroots(planted).real)


def test_root_moduli_over_six_decades_stay_within_the_evaluation_budget(eval_count):
    _planted, p = _six_decades()
    _roots_within_budget(eval_count, p)


def test_root_moduli_over_six_decades_are_all_recovered():
    planted, p = _six_decades()
    roots = complex_roots(p)
    for z in planted:
        assert min(abs(r - z) for r, _m in roots) <= 1e-8 * abs(z), f"lost the root {z}"


def test_planted_symmetrizations_stay_within_the_evaluation_budget(eval_count):
    rng = np.random.default_rng(5)
    for case in range(50):
        count = 2 + case % 11  # symmetrization degree 4–24
        p, spheres = _planted_symmetrization(rng, count)
        roots = _roots_within_budget(eval_count, p)
        got = sorted((z.real, z.imag) for z, m in roots if z.imag > 0.0 and m == 1)
        assert len(got) == count and len(roots) == 2 * count, f"case {case}: {roots}"
        for (gre, gim), (wre, wim) in zip(got, sorted(spheres)):
            assert math.hypot(gre - wre, gim - wim) <= 1e-8 * (1.0 + math.hypot(wre, wim)), (
                f"case {case}: recovered ({gre}, {gim}) for planted ({wre}, {wim})"
            )


def test_the_companion_start_meets_the_backward_error_test_within_three_steps(
        eval_count, monkeypatch):
    """Seeded planted symmetrizations of degree 4–24: from the companion
    eigenvalues, each Aberth–Ehrlich call makes at most three Horner passes,
    the last of which finds every approximant within its backward-error bound."""
    steps = []
    aberth = divisor._aberth_iterate

    def counting_aberth(c):
        before = eval_count[0]
        out = aberth(c)
        steps.append((c.shape[0] - 1, (eval_count[0] - before) // 3))  # 3 rows a pass
        return out

    monkeypatch.setattr(divisor, "_aberth_iterate", counting_aberth)
    rng = np.random.default_rng(ABERTH_START_SEED)
    for case in range(55):
        p, _spheres = _planted_symmetrization(rng, 2 + case % 11)  # f-degree 2–12
        complex_roots(p)
    assert sorted({deg for deg, _n in steps}) == list(range(4, 25, 2))
    assert max(n for _deg, n in steps) <= ABERTH_STEP_BUDGET, steps


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


def test_a_double_sphere_beside_a_real_root_at_degree_ten_stays_apart():
    f, planted = _planted_repeated_spheres(np.random.default_rng(OVER_MERGED_SEED), max_degree=13)
    assert f.degree >= 10
    assert _recovered_orders_match(f, planted), entries_of(f)[0]


# Case 1758 of _planted_repeated_spheres(np.random.default_rng(2), max_degree=13)
# and its planted orders.
CLOSE_DOUBLE_SPHERES_INPUT = [
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
CLOSE_DOUBLE_SPHERES_ORDERS = {
    (0.702979634447785, 0.7259196516091457): 1,
    (0.8622255179730596, 1.6544436669885518): 2,
    (1.1718013650368624, 1.4795004526716706): 2,
    (1.7735867065553892, 1.4659932803628004): 2,
    (1.8213183674812976, 0.9993855630831181): 2,
    (1.9063472831168453, 0.7194962083703162): 2,
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the inclusion discs of the double spheres at (1.821, 0.999) and "
    "(1.906, 0.719) overlap, and their component comes back as one sphere of "
    "order 4 near (1.827, 0.822); the orders still sum to the degree, so the "
    "wrong divisor is not refused",
)
def test_two_double_spheres_0_29_apart_stay_apart():
    f = LeftPoly(CLOSE_DOUBLE_SPHERES_INPUT)
    assert _recovered_orders_match(f, CLOSE_DOUBLE_SPHERES_ORDERS), entries_of(f)[0]


def test_half_planes_holding_different_root_counts_are_refused(monkeypatch):
    """A symmetrization of a degree-10 f whose roots found on and above the
    real axis account for 4 of its degree, not 10, gives no divisor."""
    found = [(0.5 + 1.0j, 1), (0.5 - 1.0j, 1), (2.0 + 0j, 2), (1.8 + 0.9j, 2), (1.8 - 0.9j, 2)]
    monkeypatch.setattr(divisor, "complex_roots", lambda p: found)
    f = LeftPoly([[1.0, 1.0, 0.0, 0.0]] + [[0.0] * 4] * 9 + [[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(UnbalancedDivisor, match="orders sum to 4 on a polynomial of degree 10"):
        total_order_divisor(f)


def test_the_roots_are_read_off_the_upper_half_plane(monkeypatch):
    """Approximants of (q²+1)² that cluster as one tight double root at i
    and two loose simple roots near −i come back as ±i, each double."""
    z = np.array([1j * (1 + 1e-9), 1j * (1 - 1e-9), -1j + 1e-3, -1j - 1e-3])
    rho = np.array([4e-18, 4e-18, 1e-20, 1e-20])
    monkeypatch.setattr(divisor, "_aberth_iterate", lambda c: (z, rho))
    roots = complex_roots(RealPoly([1.0, 0.0, 2.0, 0.0, 1.0]))
    assert roots == [(-1j, 2), (1j, 2)]
    _assert_closed_and_complete(roots, 4)


@pytest.mark.parametrize("f, sphere, order", [
    (RealPoly([1e-16, 0.0, 1.0]), (0.0, 1e-8), 2),
    (LeftPoly([[-1e-9, -2e-9, 0, 0], [1, 0, 0, 0]]), (1e-9, 2e-9), 1),
], ids=["q2-plus-1e-16", "q-minus-1e-9-times-1-plus-2i"])
def test_a_sphere_of_modulus_below_1e_8_is_found(f, sphere, order):
    """Both kernels fit a float at r = 2, and q² + 1e-12, at |ζ| = 1e-6, is found."""
    spheres, m0 = entries_of(f)
    [(got, k)] = spheres.items()
    assert (k, m0) == (order, 0)
    assert math.dist(got, sphere) <= 1e-6 * math.hypot(*sphere)


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


def test_kernel_at_a_sphere_of_modulus_1e_79_is_read_in_the_ratio():
    """|ζ|⁴ = 1e-316 is subnormal; the kernel is log(R/|ζ|) + ((|ζ|/R)² − (R/|ζ|)²)/4 for a real ζ."""
    got = jensen_kernel(SliceComplex(-1e-79, 0.0), 2.0)
    want = math.log(2e79) + ((1e-79 / 2.0) ** 2 - 2e79 ** 2) / 4.0
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)


def _seeded_polynomials(count=40):
    """count coefficient arrays of degree 1–4 with components in (−1, 1), every third real."""
    rng = np.random.default_rng(EQUIVARIANCE_SEED)
    out = []
    for i in range(count):
        c = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 4))
        if i % 3 == 0:
            c[:, 1:] = 0.0
        out.append(c)
    return out


def _entries_times(d, k):
    """The entries of d with every sphere scaled by 2^k, and its origin order."""
    return [(math.ldexp(s.re, k), math.ldexp(s.im, k), order) for s, order in d.entries], d.origin_order


@pytest.mark.parametrize("k", [1, -1, 27, -27, 60, -60, 200, -200])
def test_the_divisor_is_exactly_scale_equivariant(k):
    """f(2^k·q) has the divisor of f scaled by 2^−k, bit for bit.

    At |k| = 200 the symmetrization of a quaternion f may instead lose a
    coefficient below the float range, which is a named OverflowError; an
    input with a scaled coefficient that is not a normal float is skipped.
    """
    checked = 0
    for c in _seeded_polynomials():
        scaled = np.ldexp(c, k * np.arange(c.shape[0])[:, None])
        nonzero = np.abs(scaled[c != 0.0])
        if not ((nonzero >= np.finfo(float).tiny) & (nonzero <= np.finfo(float).max)).all():
            continue
        want = _entries_times(total_order_divisor(LeftPoly(c)), -k)
        try:
            got = _entries_times(total_order_divisor(LeftPoly(scaled)), 0)
        except OverflowError as err:
            assert abs(k) >= 200 and "lost a coefficient below the float range" in str(err), err
            continue
        assert got == want, (c.tolist(), got, want)
        checked += 1
    assert checked >= 13


def test_a_symmetrization_that_underflows_is_a_named_error():
    """f^s = q² + 2e-200·q + 2e-400 loses its constant term, so its roots would read as a real one."""
    with pytest.raises(OverflowError, match="the symmetrization of a degree-1 side lost a coefficient "
                       "below the float range: it has degree 2 and origin order 1"):
        total_order_divisor(LeftPoly([[1e-200, 1e-200, 0, 0], [1, 0, 0, 0]]))


def test_a_sphere_above_1e154_is_sorted_by_its_modulus():
    """(1e155)² overflows a Python float; the entries are sorted by |ζ| = hypot(re, im)."""
    assert entries_of(RealPoly([-1e155, 1.0])) == ({(1e155, 0.0): 1}, 0)
    d = SphereDivisor.build([(SliceComplex(1e155, 0.0), 1), (SliceComplex(0.0, 2.0), 1)], 0)
    assert [(s.re, s.im) for s, _ in d.entries] == [(0.0, 2.0), (1e155, 0.0)]


@pytest.mark.parametrize("reader", [
    lambda d, r: jensen_kernel(d.entries[0][0], r),
    lambda d, r: N_integrated(d, "zero", r),
    lambda d, r: N_via_unintegrated(d, "zero", r),
    lambda d, r: angular_term(d, "zero", r),
], ids=["jensen_kernel", "N_integrated", "N_via_unintegrated", "angular_term"])
@pytest.mark.parametrize("mod, finite", [(1e-79, True), (1e-200, False)])
def test_kernel_terms_are_finite_or_a_named_overflow(reader, mod, finite):
    """(r/|ζ|)² is 4e158 at |ζ| = 1e-79 and 4e400 at |ζ| = 1e-200, with r = 2."""
    d = SphereDivisor.build([(SliceComplex(-mod, 0.0), 1)], 0)
    if finite:
        assert math.isfinite(reader(d, 2.0))
    else:
        with pytest.raises(OverflowError, match=re.escape(f"|ζ| = {mod!r}, r = 2.0")):
            reader(d, 2.0)


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


@pytest.mark.parametrize("reader", [
    lambda d, r: signed_kernel_sum(d, r, "corrected"),
    lambda d, r: N_integrated(d, "zero", r),
    lambda d, r: N_via_unintegrated(d, "zero", r),
], ids=["signed_kernel_sum", "N_integrated", "N_via_unintegrated"])
def test_boundary_sphere_raises(reader):
    d = SphereDivisor.build([(SliceComplex(0.0, 1.0), 1)], 0)
    with pytest.raises(BoundaryDivisor):
        reader(d, 1.0)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("reader", [
    lambda d, r: jensen_kernel(d.entries[0][0], r),
    lambda d, r: signed_kernel_sum(d, r, "corrected"),
    lambda d, r: N_integrated(d, "zero", r),
    lambda d, r: N_via_unintegrated(d, "zero", r),
    lambda d, r: angular_term(d, "zero", r),
    lambda d, r: angular_identity_check(d, "zero", r),
], ids=["jensen_kernel", "signed_kernel_sum", "N_integrated", "N_via_unintegrated",
        "angular_term", "angular_identity_check"])
def test_a_radius_outside_zero_to_infinity_raises(reader, r):
    """No NaN, no value at r ≤ 0, and no BoundaryDivisor at r = ∞: a ValueError."""
    d = SphereDivisor.build([(SliceComplex(0.5, 1.0), 1)], 1)
    with pytest.raises(ValueError, match="radius"):
        reader(d, r)


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


# ---------------------------------------------------------------------------
# Refusals: each bad input raises its named error
# ---------------------------------------------------------------------------


_SPHERE = SliceComplex(0.5, 0.7)


@pytest.mark.parametrize("call, error, match", [
    (lambda: complex_roots(LeftPoly([[0, -1, 0, 0], [1, 0, 0, 0]])), ValueError,
     "real-coefficient"),
    (lambda: complex_roots(RealPoly([])), ZeroPolynomial, "zero polynomial"),
    (lambda: SphereDivisor(((_SPHERE, 0),)), ValueError, "nonzero order"),
    (lambda: SphereDivisor(((_SPHERE, 1), (SliceComplex(0.5, 0.7), -2))), ValueError,
     "duplicate sphere"),
    (lambda: SphereDivisor(((SliceComplex(0.0, 0.0), 1),)), ValueError, "origin_order"),
    (lambda: SphereDivisor.build([(_SPHERE, 1)]).side("both"), ValueError, "'zero' or 'pole'"),
    (lambda: total_order_divisor(RealPoly([])), ZeroPolynomial, "zero function"),
    (lambda: jensen_kernel(SliceComplex(0.0, 0.0), 2.0), ZeroCenter, "origin sphere"),
    (lambda: signed_kernel_sum(SphereDivisor.build([(_SPHERE, 1)]), 2.0, "halved"),
     ValueError, "'corrected' or 'doubled'"),
], ids=["roots-of-leftpoly", "roots-of-zero", "order-0-entry", "duplicate-sphere",
        "origin-entry", "side-both", "divisor-of-zero", "kernel-at-origin",
        "halved-convention"])
def test_bad_divisor_inputs_raise_their_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


if __name__ == "__main__":
    def _orders(spheres):
        return ", ".join(f"({re:.3f}, {im:.3f}): {k}" for (re, im), k in sorted(spheres.items()))

    for seed in range(1, 13):
        rng = np.random.default_rng(seed)
        wrong, refused = [], []
        for case in range(2000):
            f, planted = _planted_repeated_spheres(rng, max_degree=13)
            try:
                if not _recovered_orders_match(f, planted):
                    wrong.append((case, planted, entries_of(f)[0]))
            except UnbalancedDivisor:
                refused.append(case)
        print(f"seed {seed}: wrong {[case for case, _p, _r in wrong]}, refused {refused}")
        for case, planted, recovered in wrong:
            print(f"  input {case:>4}  planted   {{{_orders(planted)}}}")
            print(f"{'':14}recovered {{{_orders(recovered)}}}")
