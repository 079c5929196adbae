"""Value-distribution functions: H, m, T, Jensen verification, and the
characteristic algebra.

Every stochastic claim is gated by the run's own 3·std_error; every
closed-form claim is gated at fixed tolerance.  Dual routes are kept
separate throughout: the harmonic remainder is checked against an
independent finite-difference Laplacian, the characteristic against its
exact boundary form, and the Jensen residual against both kernel
conventions on a shared sample stream.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quatnev import nevanlinna, star_poly
from quatnev.quat_core import Quaternion, SliceComplex, qnorm
from quatnev.star_poly import LeftPoly, RealPoly, SemiregularRational, star_mul, star_power
from quatnev.divisor import jensen_kernel, total_order_divisor
from quatnev.sph_integral import IntegratorConfig, SphericalMean, TooManyRejections, mean_batch
from quatnev.nevanlinna import (
    CenterIsZeroOrPole,
    NevanlinnaProfile,
    admissible_radii,
    characteristic,
    characteristic_algebra_suite,
    counting_arbiter,
    harmonic_remainder,
    mpb_defect,
    n_bound_check,
    proximity,
    verify_fmt,
    verify_jensen,
)
from test_golden import CUBIC, RATIONAL
from test_quat_core import sphere_points

CFG = IntegratorConfig(samples=20_000, seed=2026)
FAST = IntegratorConfig(samples=5_000, seed=2026)

ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)

H_GOLDEN = 0.438276113952          # H(q, 0.5 + 0.7i, 2) = (r²/4)·0.24/0.5476
LHS_GOLDEN = -0.150552546392       # log|0.5 + 0.7i|
J_GOLDEN = 1.266975840904          # boundary kernel of the canonical fixture sphere at R = 2


def linear(c: Quaternion) -> LeftPoly:
    return LeftPoly([(-c).to_array(), [1, 0, 0, 0]])


# ---------------------------------------------------------------------------
# Harmonic remainder: goldens, closed form, FD oracle, counterexample
# ---------------------------------------------------------------------------


def test_harmonic_golden():
    f = linear(Quaternion(0.5, 0.7, 0, 0))
    got = harmonic_remainder(f, ZERO, 2.0)
    assert abs(got - H_GOLDEN) <= 1e-10, f"H = {got}"


@given(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
)
@settings(max_examples=150)
def test_harmonic_linear_closed_form(xi, eta, r):
    """H(q, ζ, r) = −(r²/4)(ξ² − η²)/|ζ|⁴ for a linear recentering."""
    if math.hypot(xi, eta) < 0.2:
        return
    f = RealPoly([0.0, 1.0])
    a = Quaternion(xi, eta, 0, 0)
    got = harmonic_remainder(f, a, r)
    mod4 = (xi * xi + eta * eta) ** 2
    want = -(r * r / 4.0) * (xi * xi - eta * eta) / mod4
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), f"{got} ≠ {want}"


def test_harmonic_negative_for_real_targets():
    """H(q, 1, r) = −r²/4 < 0: nonnegativity of H fails for real targets."""
    f = RealPoly([0.0, 1.0])
    for r in (1.0, 2.0, 5.0):
        got = harmonic_remainder(f, ONE, r)
        assert abs(got - (-(r * r) / 4.0)) <= 1e-12
        assert got < 0.0


def test_harmonic_at_infinity_is_zero():
    f = RealPoly([1.0, 0.0, 1.0])
    assert harmonic_remainder(f, None, 3.0) == 0.0
    assert harmonic_remainder(f, "inf", 3.0) == 0.0


def test_harmonic_rejects_center_on_divisor():
    f = RealPoly([1.0, 0.0, 1.0])
    with pytest.raises(CenterIsZeroOrPole):
        harmonic_remainder(f, ONE, 2.0)          # f − 1 = q² vanishes at 0


@pytest.mark.parametrize("f, r, want", [
    # (g₀⁻¹g₁)² = 1e400 overflows
    (LeftPoly([[1e-200, 0, 0, 0], [1, 0, 0, 0]]), 1.0, OverflowError),
    # the inverse of a subnormal g₀ overflows
    (LeftPoly([[0, 0, 0, 2.2e-311], [1, 0, 0, 0]]), 1.0, OverflowError),
    # r²/4 overflows, but a constant has H = 0 at every r
    (RealPoly([2.0]), 1e200, 0.0),
    (RealPoly([1.0, 0.0, 1.0]), 1e200, OverflowError),
    # r²/4 overflows, but H = (r/2)·((r/2)·(−1e-300)) fits
    (RealPoly([1.0, 1e-150]), 1e200, -2.5e99),
], ids=["squared-ratio", "subnormal-center", "constant", "r-squared", "r-squared-small-bracket"])
def test_harmonic_is_finite_or_a_named_overflow(f, r, want):
    if want is OverflowError:
        with pytest.raises(OverflowError, match=re.escape(f"H(f, a, r) at r = {r!r}")):
            harmonic_remainder(f, ZERO, r)
    else:
        assert harmonic_remainder(f, ZERO, r) == want


# components of a series coefficient: 0.0 or 1e-3 ≤ |x| ≤ 2, so every
# inverse and square of the head is a normal float, and no −0.0, whose
# sign the head of f and the head of f − a may keep differently
_COMPONENT = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0),
                       st.floats(min_value=-2.0, max_value=-1e-3))
_QUAT = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT)


def _head_of_f_minus_a(f, a, r: float) -> float:
    """H from the series head of f − a formed in full, the route harmonic_remainder skips."""
    return nevanlinna._lambda_of_head((f - a).series_head(), r)


def _term_size(head, r: float) -> float:
    """(r²/4)(|g₀⁻¹g₂| + |g₀⁻¹g₁|²) for a head (g₀, g₁, g₂): the size of H's two terms."""
    g0, g1, g2 = head
    inv0 = g0.inverse()
    return 0.25 * r * r * ((inv0 * g2).norm() + (inv0 * g1).norm() ** 2)


def _with_origin_order(m0: int, rows) -> np.ndarray:
    """Coefficient rows of q^m0 times the polynomial with the given rows (rows[0] ≠ 0)."""
    return np.concatenate([np.zeros((m0, 4)), np.array(rows, dtype=float)])


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(_QUAT, min_size=1, max_size=4),
    _QUAT,
    st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_harmonic_of_a_polynomial_keeps_the_bits_of_f_minus_a(m0, rows, a, r):
    """H read off the head of f has the bits of H read off the head of f − a."""
    a = Quaternion(*a)
    assume(any(rows[0]) and (m0 == 0 or a.norm() > 0.0))
    f = LeftPoly(_with_origin_order(m0, rows))
    assert f.origin_order() == m0
    g = f - a
    if g.is_zero or g.origin_order() != 0:
        with pytest.raises(CenterIsZeroOrPole):
            harmonic_remainder(f, a, r)
        return
    assert harmonic_remainder(f, a, r).hex() == _head_of_f_minus_a(f, a, r).hex()


@given(
    st.integers(min_value=0, max_value=3),
    st.lists(_QUAT, min_size=1, max_size=3),
    st.lists(_QUAT, min_size=1, max_size=3),
    _QUAT,
    st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=200, deadline=None)
def test_harmonic_of_a_rational_matches_f_minus_a_at_rounding_level(m0, num, den, a, r):
    """For a rational H is read off the head of f, whose division by den_s
    rounds apart from that of f − a: the two agree to 1e-10 of the size of
    H's terms.  The inputs keep clear of cancellation, which would lift the
    rounding of both routes above that size: |h(0)| ≥ 0.5, f's own head
    has |d₁|, |2d₂| ≥ 1e-2·(1 + |d₀|), and for ord₀ f = 0, |f(0) − a| ≥ 1e-3·(1 + |a|)."""
    a = Quaternion(*a)
    num, den = np.array(num), np.array(den)
    assume(np.linalg.norm(num[0]) >= 0.1 and np.linalg.norm(den[0]) >= 0.5 and a.norm() >= 0.1)
    f = SemiregularRational(LeftPoly(_with_origin_order(m0, num)), LeftPoly(den))
    assert f.origin_order() == m0
    d0, d1, d2x2 = f.series_head()
    assume(min(d1.norm(), d2x2.norm()) >= 1e-2 * (1.0 + d0.norm()))
    assume(m0 > 0 or (d0 - a).norm() >= 1e-3 * (1.0 + a.norm()))
    got = harmonic_remainder(f, a, r)
    want = _head_of_f_minus_a(f, a, r)
    # f − a cancels c₁ and c₂ down from terms of the size of f's own d₁ and
    # 2d₂ (for ord₀ f = 3 to exactly 0), so its rounding is measured on both
    g0, g1, g2 = (f - a).series_head()
    scale = _term_size((g0, g1, g2), r) + _term_size((g0, d1, d2x2), r)
    assert abs(got - want) <= 1e-10 * scale, f"{got} ≠ {want}"


def _divisor_case(seed):
    """(f − a, R): a seeded LeftPoly of degree 1–3 or a rational with a quaternion
    denominator, at a = 0 or a random a, with R from 0.1 to 100."""
    rng = np.random.default_rng(seed)
    f = LeftPoly(rng.normal(size=(int(rng.integers(1, 4)) + 1, 4)))
    if seed % 2:
        f = SemiregularRational(f, LeftPoly(rng.normal(size=(int(rng.integers(2, 4)), 4))))
    a = ZERO if seed % 4 < 2 else Quaternion(*rng.normal(size=4))
    return f, a, float(10.0 ** rng.uniform(-1.0, 2.0))


@pytest.mark.parametrize("seed", range(40))
def test_harmonic_from_the_head_is_minus_r2_over_4_sum_of_ord_re_zeta_to_the_minus_2(seed):
    """H(f, a, R) = −(R²/4)·Σ ord·Re(ζ⁻²) over the signed divisor of f − a, zeros and poles.

    Newton's identities on the stem of (f − a)^s give this; the terms are
    formed here with complex arithmetic, apart from the kernel code of
    divisor.py, on the cases of _divisor_case.
    """
    f, a, R = _divisor_case(seed)
    d = total_order_divisor(f - a)
    assert d.origin_order == 0
    terms = [(R * R / 4.0) * k * (complex(s.re, s.im) ** -2).real for s, k in d.entries]
    got = harmonic_remainder(f, a, R)
    assert abs(got + sum(terms)) <= 1e-12 * sum(abs(t) for t in terms), (got, -sum(terms))


@pytest.mark.parametrize("seed", range(40))
def test_the_jensen_closure_summed_by_sphere_is_the_kernel_sum_less_h(seed, monkeypatch):
    """The divisor side D of the closure is n₀·log R + Σ_inside ord·J(ζ, R) − H from the head.

    A boundary mean of 0.0 stands in for the Monte-Carlo pass, so the
    corrected residual is −D − lhs and D is read back off it; lhs joins
    the scale Σ|terms|, as its rounding enters that residual.
    """
    f, a, R = _divisor_case(seed)
    g = f - a
    d = total_order_divisor(g)
    monkeypatch.setattr(nevanlinna, "mean_columns",
                        lambda columns, r, cfg: [SphericalMean(0.0, 0.0, cfg.samples, 0)] * 3)
    corrected, factor2, _ = nevanlinna._jensen_closure(g, d, R, FAST)
    got = -corrected.residual - corrected.lhs
    want = corrected.divisor_sum - corrected.harmonic
    terms = [k * jensen_kernel(s, R) for s, k in d.entries if s.modulus() < R]
    scale = sum(abs(t) for t in terms) + abs(corrected.harmonic) + abs(corrected.lhs)
    assert abs(got - want) <= 1e-12 * scale, (got, want)
    assert factor2.residual == corrected.residual - (factor2.divisor_sum - corrected.divisor_sum)


def test_a_sphere_beyond_1e154_r_outside_the_ball_still_closes():
    """(q − 5e-5)(q − 1e152) at R = 1e-3: t² = 1e310 of the far sphere does not fit a float,
    and its term in the closure needs only ρ² = 1e-310."""
    f = RealPoly([5e-5 * 1e152, -(1e152 + 5e-5), 1.0])
    with pytest.raises(OverflowError):
        jensen_kernel(SliceComplex(1e152, 0.0), 1e-3)
    rep, _ = verify_jensen(f, 1e-3, CFG)
    assert rep.gate_ok, f"residual {rep.residual} beyond 3σ = {rep.three_sigma}"


_QUATERNION_DEN = LeftPoly([[0.5, 0.2, -0.1, 0.3], [1.0, 0.0, 0.4, 0.0]])
_A = Quaternion(0.3, -1.1, 0.7, 0.2)
_CENTER_CASES = {
    # f(0) = a: g(0) = a·h(0), though the head value d₀ of f rounds off a
    # (a polynomial's case is test_harmonic_rejects_center_on_divisor)
    "rational-f(0)=a": (SemiregularRational(LeftPoly([(_A * Quaternion(0.5, 0.2, -0.1, 0.3)).to_array(),
                                                      [1, 0, 0, 0]]), _QUATERNION_DEN), _A),
    # 0 is a zero of f − a through a zero of f at a = 0
    "poly-zero-at-0": (LeftPoly([[0, 0, 0, 0], [1, 1, 0, 0]]), ZERO),
    "rational-zero-at-0": (SemiregularRational(LeftPoly([[0, 0, 0, 0], [1, 1, 0, 0]]),
                                               _QUATERNION_DEN), ZERO),
    # a pole at 0, which only a rational has; a moves nothing there
    "real-den-pole-at-0": (SemiregularRational(RealPoly([1.0, 1.0]), RealPoly([0.0, 1.0])), ONE),
    "quaternion-den-pole-at-0": (SemiregularRational(
        LeftPoly([[1, 0.5, 0, 0], [0, 0, 1, 0]]),
        star_mul(RealPoly([0.0, 0.0, 1.0]), _QUATERNION_DEN)), Quaternion(0.2, 0, 0, -1)),
    # f ≡ a
    "poly-constant": (LeftPoly.constant(_A), _A),
    "rational-constant": (SemiregularRational(_QUATERNION_DEN.scale_left(_A), _QUATERNION_DEN), _A),
    "zero-function": (SemiregularRational(RealPoly([]), _QUATERNION_DEN), ZERO),
}


@pytest.mark.parametrize("f, a", list(_CENTER_CASES.values()), ids=list(_CENTER_CASES))
def test_harmonic_refuses_a_zero_or_pole_of_f_minus_a_at_the_center(f, a):
    with pytest.raises(CenterIsZeroOrPole):
        harmonic_remainder(f, a, 1.5)


@pytest.mark.parametrize("f, a", [
    (LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1, 0, 0, 0]]), Quaternion(0.1, 0.2, 0, 0)),
    (LeftPoly([[0, 0, 0, 0], [1.0, 0.5, 0.0, -0.3], [1, 0, 0, 0]]), Quaternion(0.1, 0.2, 0, 0)),
    (SemiregularRational(LeftPoly([[0.3, 0.2, -0.1, 0.4], [1, 0, 0, 0]]), _QUATERNION_DEN), 0.7),
    (SemiregularRational(LeftPoly([[0, 0, 0, 0], [0.3, 0.2, -0.1, 0.4], [1, 0, 0, 0]]),
                         _QUATERNION_DEN), Quaternion(0.1, 0.2, 0, 0)),
], ids=["poly", "poly-zero-at-0", "rational", "rational-zero-at-0"])
def test_harmonic_remainder_forms_no_polynomial(f, a, monkeypatch):
    """H reads the head f holds: no LeftPoly, no rational, no *-product is made."""
    made = []
    new_poly, init_rational, mul = LeftPoly.__new__, SemiregularRational.__init__, star_poly.star_mul

    def counting_new(cls, *args):
        made.append(("LeftPoly", args))
        return new_poly(cls, *args)

    def counting_init(self, *args):
        made.append(("SemiregularRational", args))
        init_rational(self, *args)

    def counting_mul(*args):
        made.append(("star_mul", args))
        return mul(*args)

    monkeypatch.setattr(LeftPoly, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(SemiregularRational, "__init__", counting_init)
    monkeypatch.setattr(star_poly, "star_mul", counting_mul)
    assert math.isfinite(harmonic_remainder(f, a, 1.5))
    assert made == []


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("reader", [
    lambda f, r: harmonic_remainder(f, ZERO, r),
    lambda f, r: verify_fmt(f, ZERO, [1.0, r], FAST),
    lambda f, r: NevanlinnaProfile("f", "0", (r,), *[(0.0,)] * 6, FAST),
], ids=["harmonic_remainder", "verify_fmt", "NevanlinnaProfile"])
def test_a_radius_outside_zero_to_infinity_is_refused(reader, r):
    with pytest.raises(ValueError, match="radius"):
        reader(linear(Quaternion(0.5, 0.7, 0, 0)), r)


def _fd_laplacian_defect(g, r: float, h: float) -> float:
    gs = g.symmetrize()
    u0 = math.log(abs(gs(ZERO)))
    acc = 0.0
    for axis in range(4):
        for sgn in (+1.0, -1.0):
            c = [0.0, 0.0, 0.0, 0.0]
            c[axis] = sgn * h
            acc += math.log(abs(gs(Quaternion(*c)))) - u0
    return -(r * r / 16.0) * acc / (h * h)


@pytest.mark.parametrize(
    "coeffs, a",
    [
        ([[1, 1, 0, 0], [1, 1, 0, 0]], ZERO),                      # parallel imaginaries
        ([[0.5, 0.2, -0.3, 0.1], [1, -0.4, 0.2, 0.6]], Quaternion(0.1, 0, 0.2, 0)),
        ([[1, 0, 0, 0], [0, 1, 1, 0], [0.3, 0, 0, 0.5]], Quaternion(-0.2, 0.1, 0, 0)),
    ],
)
def test_harmonic_matches_fd_laplacian(coeffs, a):
    """Closed form vs the 9-point 4D finite-difference Laplacian of log|(f−a)^s|."""
    f = LeftPoly(coeffs)
    r = 2.0
    closed = harmonic_remainder(f, a, r)
    h = 1e-4 * (1.0 + abs(f(ZERO) - a))
    fd = _fd_laplacian_defect(f - a, r, h)
    rel = abs(closed - fd) / max(abs(closed), 1e-12)
    assert rel <= 1e-5, f"closed {closed} vs FD {fd} (rel {rel:.2e})"


def test_harmonic_is_blind_to_conjugating_the_derivative_only_off_fixture():
    """The parallel-imaginary case separates the two candidate closed forms."""
    f = LeftPoly([[1, 1, 0, 0], [1, 1, 0, 0]])    # g(0) = g′(0) = 1 + i
    r = 1.0
    got = harmonic_remainder(f, ZERO, r)
    assert abs(got - (-(r * r) / 4.0)) <= 1e-12, (
        "Re((g0⁻¹g1)²) = 1 here, so H must be −r²/4; +r²/4 indicates a stray conjugation"
    )


# ---------------------------------------------------------------------------
# Proximity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("infinity", [None, math.inf, "inf"], ids=["None", "math.inf", "str"])
def test_proximity_to_infinity_of_identity_is_log_radius(infinity):
    f = RealPoly([0.0, 1.0])
    m = proximity(f, infinity, math.e, CFG)
    assert abs(m.value - 1.0) <= 1e-12 and m.std_error <= 1e-12


def test_proximity_to_far_target_vanishes():
    f = RealPoly([0.0, 1.0])
    m = proximity(f, Quaternion(9, 0, 0, 0), 2.0, CFG)
    assert m.value == 0.0, "|f − 9| > 1 everywhere on |q| = 2, so log⁺(1/…) ≡ 0"


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def test_characteristic_of_identity_at_e():
    got = characteristic(RealPoly([0.0, 1.0]), None, math.e, CFG)
    assert abs(got - 1.0) <= 1e-12, f"T(q, ∞, e) = {got}"


def test_characteristic_of_small_constant_is_zero():
    got = characteristic(LeftPoly.constant(Quaternion(0.5, 0, 0, 0)), None, 5.0, CFG)
    assert got == 0.0


def test_characteristic_exact_boundary_form():
    """T(f, a, r) equals N(f, ∞, r) + ½m((f−a)^s, ∞, r) − log|f(0) − a| exactly."""
    f = RealPoly([1.0, 0.0, 1.0])
    a = Quaternion(3, 0, 0, 0)
    r = 2.0
    t = characteristic(f, a, r, CFG)
    g = f - a
    m_inf = proximity(g.symmetrize(), None, r, CFG)
    want = 0.0 + 0.5 * m_inf.value - math.log(abs(f(ZERO) - a))
    # both sides carry independent Monte-Carlo noise of about 0.5·3σ each
    assert abs(t - want) <= 0.5 * m_inf.three_sigma + 0.02, (
        f"assembled T = {t}, boundary form = {want}"
    )


def test_characteristic_star_square_doubles():
    f = star_mul(linear(Quaternion(0, 1, 0, 0)), linear(Quaternion(0, 0, 1, 0)))
    f2 = star_power(f, 2)
    r = 3.0
    t1 = characteristic(f, None, r, CFG)
    t2 = characteristic(f2, None, r, CFG)
    assert abs(t2 - 2.0 * t1) <= 1e-9 * (1.0 + abs(t2)), f"{t2} ≠ 2·{t1}"


def test_characteristic_grows_with_radius_for_polynomials():
    f = RealPoly([1.0, 0.0, 1.0])
    values = [characteristic(f, None, r, FAST) for r in (2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(values, values[1:])), f"not increasing: {values}"


def test_pole_guard_of_a_star_power_is_relative_to_its_denominator():
    """The ½·m pass of T(f^{3*}, ∞) at r = 1.5 keeps its samples.

    f has quaternion denominator and pole spheres of modulus 0.36 and 0.76,
    well inside ∂B_1.5.  (f^{3*})^s is 24/24, and a guard of
    1e-12·(1+|q|)^24 ≈ 3.6e-3 rejected 536 of 20 000 samples there.
    """
    f = SemiregularRational(LeftPoly([[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]]),
                            LeftPoly([[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]]))
    sym = star_power(f, 3).symmetrize()
    m = proximity(sym, None, 1.5, CFG)
    assert m.rejected <= 0.001 * CFG.samples


# ---------------------------------------------------------------------------
# Jensen verification
# ---------------------------------------------------------------------------


def test_jensen_canonical_fixture_closes():
    f = linear(Quaternion(0.5, 0.7, 0, 0))
    rep, _ = verify_jensen(f, 2.0, CFG)
    assert abs(rep.lhs - LHS_GOLDEN) <= 1e-9
    assert abs(rep.harmonic - H_GOLDEN) <= 1e-9
    assert abs(rep.divisor_sum - J_GOLDEN) <= 1e-9
    assert abs(rep.residual) <= rep.three_sigma, (
        f"residual {rep.residual} beyond 3σ = {rep.three_sigma}"
    )
    assert rep.gate_ok


def test_jensen_empty_divisor():
    rep, _ = verify_jensen(linear(Quaternion(5, 0, 0, 0)), 2.0, CFG)
    assert rep.divisor_sum == 0.0
    assert abs(rep.residual) <= rep.three_sigma


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 3σ gate has zero width when log|f| is constant on the sphere")
def test_jensen_gate_holds_when_the_boundary_mean_is_exact():
    """f = 3q has |f| = 3r on ∂B_r, so the Jensen residual is pure rounding.

    Its residual is −2.2e-16, one ulp of log 6, against 3σ = 6.6e-18 at
    seed 1: the block sums are pairwise, and σ → 0 leaves no room for the
    rounding that remains.
    """
    assert verify_jensen(RealPoly([0.0, 3.0]), 2.0, IntegratorConfig(samples=20_000, seed=1))[0].gate_ok


def test_jensen_star_product_with_unit_center():
    f = star_mul(linear(Quaternion(0, 1, 0, 0)), linear(Quaternion(0, 0, 1, 0)))
    rep, _ = verify_jensen(f, 2.0, CFG)
    assert abs(rep.lhs) <= 1e-12, "|f(0)| = |k| = 1"
    assert abs(rep.harmonic - 2.0) <= 1e-9, "Λ = r²/2 at r = 2 for this fixture"
    assert abs(rep.residual) <= rep.three_sigma


def test_jensen_conventions_differ_by_the_closed_form_offset():
    f = RealPoly([1.0, 0.0, 1.0])
    corrected, doubled = verify_jensen(f, 2.0, CFG)
    offset = 2 * jensen_kernel(SliceComplex(0.0, 1.0), 2.0)
    got = corrected.residual - doubled.residual
    assert abs(got - offset) <= 1e-12, (
        "shared streams make the convention gap deterministic: "
        f"{got} ≠ {offset}"
    )


def test_jensen_rational_with_poles_closes():
    f = SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.25, -1.0, 1.0]))
    rep, _ = verify_jensen(f, 2.0, CFG)
    assert abs(rep.residual) <= rep.three_sigma, (
        f"pole-side residual {rep.residual} beyond 3σ = {rep.three_sigma}"
    )


def test_jensen_report_json_is_complete():
    rep, _ = verify_jensen(RealPoly([1.0, 0.0, 1.0]), 2.0, FAST)
    blob = json.loads(json.dumps(rep.to_json()))
    for key in ("lhs", "harmonic", "divisor_sum", "residual", "kernel_convention", "radius"):
        assert key in blob, f"missing {key}"


MEAN_KEYS = {"value", "std_error", "effective_samples", "rejected"}


def test_report_json_keeps_its_keys():
    blob = json.loads(json.dumps(verify_jensen(RealPoly([1.0, 0.0, 1.0]), 2.0, FAST)[0].to_json()))
    assert set(blob) == {"lhs", "boundary_f", "boundary_fSf", "harmonic", "divisor_sum",
                         "residual", "kernel_convention", "three_sigma", "radius"}
    assert set(blob["boundary_f"]) == set(blob["boundary_fSf"]) == MEAN_KEYS
    rep = counting_arbiter(RealPoly([1.0, 0.0, 1.0]), 2.0, FAST)
    blob = json.loads(json.dumps(rep.to_json()))
    assert set(blob) == {"best_order", "residuals", "sphere", "kernel", "lhs", "boundary",
                         "harmonic", "three_sigma", "radius"}
    assert set(blob["boundary"]) == MEAN_KEYS
    assert blob["sphere"] == {"re": rep.sphere.re, "im": rep.sphere.im}
    assert blob["residuals"] == {str(c): res for c, res in rep.residuals}


@pytest.mark.parametrize("c", [1e-170, 1e160])
@pytest.mark.parametrize("root", [Quaternion(0.5, 0.7, 0, 0), ONE], ids=["quaternion", "real"])
def test_jensen_at_extreme_scale_keeps_the_unit_scale_closed_forms(c, root):
    unit, _ = verify_jensen(linear(root), 2.0, FAST)
    rep, _ = verify_jensen(LeftPoly(linear(root).coeffs * c), 2.0, FAST)
    assert rep.harmonic == pytest.approx(unit.harmonic, rel=1e-12)
    assert rep.divisor_sum == pytest.approx(unit.divisor_sum, rel=1e-12)
    assert rep.gate_ok, f"residual {rep.residual} beyond 3σ = {rep.three_sigma}"


def test_jensen_origin_zero_uses_deflated_center():
    f = RealPoly([0.0, 0.0, 1.0])                # q²: lhs = log|1| of the deflated head
    rep, _ = verify_jensen(f, 2.0, CFG)
    assert rep.lhs == 0.0
    # every boundary column is constant here, so 3σ is 0; leave rounding room
    assert abs(rep.residual) <= rep.three_sigma + 1e-9


# ---------------------------------------------------------------------------
# Counting-convention arbiter
# ---------------------------------------------------------------------------


def test_arbiter_picks_full_symmetrized_multiplicity():
    rep = counting_arbiter(RealPoly([1.0, 0.0, 1.0]), 2.0, CFG)
    assert rep.best_order == 2
    assert abs(rep.residual(2)) <= rep.three_sigma
    assert abs(rep.residual(1)) > 100 * rep.three_sigma, (
        "the half-multiplicity candidate must miss by the kernel value"
    )
    assert abs(rep.residual(1) - (rep.residual(2) + jensen_kernel(rep.sphere, 2.0))) <= 1e-12


def test_arbiter_rejects_unusable_inputs():
    with pytest.raises(ValueError):
        counting_arbiter(LeftPoly([[0, -1, 0, 0], [1, 0, 0, 0]]), 2.0, FAST)  # not real
    with pytest.raises(ValueError):
        counting_arbiter(RealPoly([4.0, 0.0, 1.0]), 1.0, FAST)   # sphere outside radius
    with pytest.raises(ValueError):
        counting_arbiter(RealPoly([0.25, 0.0, 1.25, 0.0, 1.0]), 2.0, FAST)  # two spheres


# ---------------------------------------------------------------------------
# Mean-proximity-balance diagnostics
# ---------------------------------------------------------------------------


def test_slice_preserving_defect_is_bitwise_zero():
    cfg = IntegratorConfig(samples=8_000, seed=5, scheme="antithetic_pair")
    f = RealPoly([1.0, 0.0, 1.0])
    radii = (0.5, 2.0, 7.0)
    for r, m in zip(radii, mpb_defect(f, None, radii, cfg)):
        assert m.value == 0.0 and m.std_error == 0.0, f"defect at r = {r}: {m.value}"


def test_raw_real_coefficients_keep_the_bitwise_guarantee():
    cfg = IntegratorConfig(samples=8_000, seed=5, scheme="antithetic_pair")
    f = LeftPoly([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])   # same poly, raw container
    (m,) = mpb_defect(f, None, [2.0], cfg)
    assert m.value == 0.0 and m.std_error == 0.0


def test_mpb_at_infinity_twists_by_s_f():
    """At a = ∞ the defect is log|f| − log|f∘S_f|, the one at a = 0, within rounding."""
    cfg = IntegratorConfig(samples=20_000, seed=7)
    radii = (0.5, 2.0, 6.0)
    rational = SemiregularRational(LeftPoly(RATIONAL["num"]), LeftPoly(RATIONAL["den"]))
    for f in (LeftPoly(CUBIC), rational):
        for at_inf, at_zero in zip(mpb_defect(f, "inf", radii, cfg), mpb_defect(f, ZERO, radii, cfg)):
            assert abs(at_inf.value - at_zero.value) <= 1e-12
            assert at_inf.rejected == at_zero.rejected


def test_dominating_index_defect_decreases():
    f = LeftPoly([[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])   # q² + q i
    cfg = IntegratorConfig(samples=50_000, seed=2026, scheme="antithetic_pair")
    defects = []
    radii = (10.0, 100.0, 1000.0)
    for r, m in zip(radii, mpb_defect(f, ONE, radii, cfg)):
        assert abs(m.value) > m.three_sigma, f"defect at r = {r} lost under noise"
        defects.append(abs(m.value))
    assert defects[0] > defects[1] > defects[2], f"not decreasing: {defects}"


# ---------------------------------------------------------------------------
# Certified-zero passes
# ---------------------------------------------------------------------------

# below, beside and above each sphere of the inputs below, so |h| crosses 1
# and the pole guard between neighbouring radii
CERTIFIED_RADII = (0.05, 0.2, 0.45, 0.6, 0.9, 1.1, 1.6, 3.0, 12.0)
# unit-scale inputs and their radius grids.  Zero spheres have modulus 1
# (q² + 1), 0.55 (the real rational's numerator and denominator) and 0.5–1
# (the quaternion ones).  q² + 1e-20 has |h| ≈ 1e-20 at r = 1e-11, far
# below a guard on the coefficient scale but above one relative to
# Σ|a_k|r^k; its grids are walked one at a time, since a pass that rejects
# every sample raises for its whole batch.
CERTIFIED_BATTERY = {
    "realpoly": ([1.0, 0.0, 1.0], None, [CERTIFIED_RADII]),
    "leftpoly": ([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]], None,
                 [CERTIFIED_RADII]),
    "real-rational": ([0.3, 0.0, 1.0], [0.3, -0.2, 1.0], [CERTIFIED_RADII]),
    "quaternion-rational": ([[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]],
                            [[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]],
                            [CERTIFIED_RADII]),
    "zero-guard": ([1e-20, 0.0, 1.0], None, [(1e-11,), (1e-3,)]),
}


def _scaled_input(name, scale):
    num, den, _grids = CERTIFIED_BATTERY[name]
    f = LeftPoly(scale * np.asarray(num, dtype=float))
    return f if den is None else SemiregularRational(f, LeftPoly(den))


def _proximity_columns(f, a, r):
    """The proximity pass of f to a at r: f − a against 0, or f against ∞ (a = None)."""
    return nevanlinna._proximity_columns(f if a is None else f - a, a is not None, r)


def _certified_battery(monkeypatch, certify):
    """Bits of every pass of the battery, and whether each request was certified.

    Each grid gets one walk for the proximity passes to 0, to a finite
    target and to ∞, and one for the MPB defect.  With certify False,
    _log_modulus_floor certifies nothing, so every pass runs Monte-Carlo.
    """
    if not certify:
        monkeypatch.setattr(nevanlinna, "_log_modulus_floor", lambda h, r: None)
    certified = []

    def recording_mean_batch(requests, cfg):
        requests = list(requests)
        certified.extend(fn is None for fn, _r in requests)
        return mean_batch(requests, cfg)

    monkeypatch.setattr(nevanlinna, "mean_batch", recording_mean_batch)
    bits = {}
    for scheme in ("monte_carlo", "antithetic_pair"):
        cfg = IntegratorConfig(samples=1_000, seed=7, scheme=scheme)
        for name, (_num, _den, grids) in CERTIFIED_BATTERY.items():
            for scale in (1e-150, 1.0, 1e150):
                f = _scaled_input(name, scale)
                targets = (ZERO, Quaternion(0.5 * scale, 0.1 * scale, 0, 0), None)
                for radii in grids:
                    walks = {
                        "m": lambda: [m for means in nevanlinna.mean_batch(
                            [(_proximity_columns(f, a, r), r)
                             for a in targets for r in radii], cfg) for m in means],
                        "mpb": lambda: mpb_defect(f, None, radii, cfg),
                    }
                    for kind, walk in walks.items():
                        try:
                            got = [(m.value.hex(), m.std_error.hex(), m.effective_samples,
                                    m.rejected) for m in walk()]
                        except TooManyRejections as exc:
                            got = str(exc)
                        bits[scheme, name, scale, radii, kind] = got
    return bits, certified


def test_certified_passes_equal_their_monte_carlo_bits(monkeypatch):
    certified_bits, certified = _certified_battery(monkeypatch, certify=True)
    monkeypatch.undo()
    mc_bits, mc_certified = _certified_battery(monkeypatch, certify=False)
    assert not any(mc_certified)
    assert certified_bits.keys() == mc_bits.keys()
    for key, bits in certified_bits.items():
        assert bits == mc_bits[key], f"certified pass differs from Monte-Carlo at {key}"
    # the zero-guard input clears the guard, relative to Σ|a_k|r^k, at r = 1e-11
    assert not any(isinstance(bits, str) for key, bits in mc_bits.items() if key[3] == (1e-11,))
    # some requests are certified, and some are not
    assert 0 < sum(certified) < len(certified)


@pytest.mark.parametrize("name, scale, a, r, certified", [
    ("realpoly", 1.0, ZERO, 3.0, True),                     # |h| > 1
    ("realpoly", 1.0, ZERO, 0.9, False),                    # |h| < 1
    ("leftpoly", 1e150, Quaternion(5e149, 1e149, 0, 0), 3.0, True),
    ("zero-guard", 1e150, ZERO, 1e-3, True),                # above the zero guard
    ("zero-guard", 1e150, ZERO, 1e-11, True),               # and here, relative to Σ|a_k|r^k
    # passes to ∞ and passes of rationals stay Monte-Carlo, even where
    # |f| < 1 or |f − a| > 1 on the whole sphere
    ("leftpoly", 1.0, None, 0.05, False),                   # |h| < 1
    ("realpoly", 1.0, None, 0.05, False),                   # |h| > 1
    ("quaternion-rational", 1.0, ZERO, 0.05, False),
    ("real-rational", 1e-150, None, 3.0, False),
    ("real-rational", 1.0, ZERO, 0.6, False),
    ("quaternion-rational", 1e150, Quaternion(5e149, 1e149, 0, 0), 12.0, False),
], ids=lambda value: repr(value) if isinstance(value, Quaternion) else None)
def test_certificate_decides_by_its_bounds(name, scale, a, r, certified):
    columns = _proximity_columns(_scaled_input(name, scale), a, r)
    assert (columns is None) == certified


@pytest.mark.parametrize("h, r", [
    (RealPoly([1.0, 0.0, 1.0]), 0.0),
    (RealPoly([1.0, 0.0, 1.0]), -1.0),
    (RealPoly([1.0, 0.0, 1.0]), math.inf),
    (RealPoly([1.0, 0.0, 1.0]), math.nan),
    (RealPoly([1.0, 0.0, 1.0]), 1e-200),    # |Im q|² of a sample underflows
    (RealPoly([]), 2.0),
    (RealPoly([1e300, 1e300]), 2.0),        # Σ|a_k||q|^k leaves the float range
    (RealPoly([1e-320, 1e-320]), 2.0),      # and here falls below it
    (RealPoly([1.0] * 3 + [0.0] * 300 + [1.0]), 1e3),   # |q|^deg overflows
    (SemiregularRational(RealPoly([1e3, 0.0, 1.0]), RealPoly([1.0])), 2.0),
], ids=["r=0", "r<0", "r=inf", "r=nan", "r=1e-200", "zero", "huge", "subnormal", "high-power",
        "rational"])
def test_modulus_floor_falls_back_without_raising(h, r):
    assert nevanlinna._log_modulus_floor(h, r) is None


# ---------------------------------------------------------------------------
# Admissible radii and O(1) summaries
# ---------------------------------------------------------------------------


def test_admissible_radii_avoid_divisor_moduli():
    f = RealPoly([1.0, 0.0, 1.0])                # sphere modulus 1
    radii = admissible_radii(f, 0.5, 2.0, count=9)
    assert len(radii) == 9
    assert np.all(np.diff(radii) > 0)
    assert np.abs(radii - 1.0).min() >= 1e-6, "grid points must clear the divisor sphere"


@pytest.mark.parametrize("f", [
    RealPoly([1.0, 0.0, 1.0]),                   # sphere modulus 1, inside the grid
    RealPoly([-4.0, 0.0, 1.0]),                  # modulus 2 = r_hi
    RealPoly([-0.25, 0.0, 1.0]),                 # modulus 0.5 = r_lo
    LeftPoly([[-0.5, -0.7, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
    SemiregularRational(RealPoly([1.0]), RealPoly([-1.0, 0.0, 1.0])),
], ids=["inside", "at_r_hi", "at_r_lo", "quaternion", "real_pole"])
def test_admissible_radii_start_at_r_lo_and_clear_every_modulus(f):
    """The nudge only moves up: no radius falls below r_lo, and each clears
    every sphere modulus by more than 1e-6·r, so the last may pass r_hi."""
    moduli = [s.modulus() for s, _k in total_order_divisor(f).entries]
    radii = admissible_radii(f, 0.5, 2.0, count=4)
    assert np.all(radii >= 0.5)
    for r in radii:
        assert all(abs(r - m) > 1e-6 * r for m in moduli), f"r = {r!r} is on a sphere"


def test_admissible_radii_can_end_above_r_hi():
    radii = admissible_radii(RealPoly([-4.0, 0.0, 1.0]), 0.5, 2.0, count=4)
    assert 2.0 < radii[-1] <= 2.0 * (1.0 + 3e-6)


def test_o1_summary_recovers_slope():
    radii = np.geomspace(10.0, 1000.0, 12)
    values = 0.75 * np.log(radii) + 0.1
    fields = nevanlinna._o1_fields(tuple(radii), tuple(values))
    assert abs(fields["slope"] - 0.75) <= 1e-12
    assert abs(fields["spread"] - (values.max() - values.min())) <= 1e-12


def test_equality_row_gate_is_inclusive_and_per_radius():
    tol = nevanlinna._EQUALITY_TOL
    assert nevanlinna._equality_row("e", [0.0, tol])["pass"]
    assert not nevanlinna._equality_row("e", [0.0, math.nextafter(tol, math.inf)])["pass"]
    assert nevanlinna._equality_row("e", [0.5, 2.0], [1.0, 3.0]) == {
        "identity": "e", "kind": "equality", "value": 2.0, "gate": 3.0, "pass": True}
    # the largest gate belongs to the other radius
    row = nevanlinna._equality_row("e", [2.0, 0.5], [1.0, 3.0])
    assert (row["value"], row["gate"], row["pass"]) == (2.0, 3.0, False)


def test_inequality_row_gate_is_inclusive_and_per_radius():
    tol = nevanlinna._EQUALITY_TOL
    assert nevanlinna._inequality_row("i", [1.0, -tol])["pass"]
    assert not nevanlinna._inequality_row("i", [1.0, math.nextafter(-tol, -math.inf)])["pass"]
    assert nevanlinna._inequality_row("i", [0.0, -3.0], [1.0, 3.0]) == {
        "identity": "i", "kind": "inequality", "value": -3.0, "gate": -3.0, "pass": True}
    row = nevanlinna._inequality_row("i", [-2.0, 0.0], [1.0, 3.0])
    assert (row["value"], row["gate"], row["pass"]) == (-2.0, -3.0, False)


def test_o1_fields_gate_the_slope():
    radii = np.geomspace(10.0, 1000.0, 5)
    flat = nevanlinna._o1_fields(radii, 0.005 * np.log(radii))
    assert list(flat) == ["spread", "slope", "slope_ok"] and flat["slope_ok"]
    assert not nevanlinna._o1_fields(radii, 0.02 * np.log(radii))["slope_ok"]


# ---------------------------------------------------------------------------
# Boundedness reports
# ---------------------------------------------------------------------------


def test_fmt_form3_is_flat_on_the_plateau():
    radii = tuple(np.geomspace(10.0, 1000.0, 12))
    rep = verify_fmt(RealPoly([1.0, 0.0, 1.0]), ONE, radii, CFG, form=3)
    s = rep["summary"]
    assert s["slope_ok"], f"slope {s['slope']} beyond the 0.01 gate"
    assert abs(s["slope"]) <= 0.01
    assert len(rep["rows"]) == 12


def test_fmt_form2_rows_are_finite_and_bounded():
    radii = tuple(np.geomspace(10.0, 200.0, 6))
    rep = verify_fmt(RealPoly([1.0, 0.0, 1.0]), ONE, radii, FAST, form=2)
    vals = [row["residual"] for row in rep["rows"]]
    assert all(math.isfinite(v) for v in vals)
    assert max(vals) - min(vals) <= 1.0, f"form-2 residual drifting: {vals}"


def _fmt_columns_from_two_evaluations(f, g, a, r):
    """Form-2 columns with g = f − a evaluated on its own, as a reference."""
    thr_g = g.near_zero_log(r)

    def columns(pts):
        sef, seg = f.stems(pts), g.stems(pts)
        la_g = seg.log_abs()
        lat_g, ok_tg = seg.log_abs_twisted(None)
        lat_f, ok_tf = sef.log_abs_twisted(None)
        with np.errstate(divide="ignore"):
            norm_fsa = qnorm(seg.twisted(None)[0] + a.to_array())
            la_fsa = np.log(norm_fsa)
        cols = np.stack([np.maximum(-la_g, 0.0), np.maximum(-lat_g, 0.0),
                         np.maximum(lat_f, 0.0), np.maximum(la_fsa, 0.0)], axis=1)
        ok = sef.ok & seg.ok & ok_tg & ok_tf & (la_g >= thr_g) & (lat_g >= thr_g)
        return cols, ok

    return columns


@pytest.mark.parametrize("f, a", [
    (LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]]),
     Quaternion(0.5, 0.1, 0.0, 0.0)),
    (SemiregularRational(LeftPoly([[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]]),
                         LeftPoly([[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]])),
     Quaternion(0.5, 0.1, 0.0, 0.0)),
    (RealPoly([1.0, 0.0, 1.0]), ONE),
    (RealPoly([1.0, 0.0, 1.0]), Quaternion(0.5, 0.1, 0.0, 0.0)),
    (SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.3, -0.2, 1.0])), ONE),
])
def test_fmt_form2_columns_match_two_evaluations(f, a, monkeypatch):
    """Form 2 reads the stems of f − a off those of f; the means match evaluating f − a."""
    radii = (1.5, 4.0)
    got = verify_fmt(f, a, radii, FAST, form=2)
    pts = sphere_points(radii[0], 3, 4096)
    g = f - a
    (_, ok), (_, ok_ref) = (
        build(f, g, a, radii[0])(pts)
        for build in (nevanlinna._fmt_proximity_columns, _fmt_columns_from_two_evaluations)
    )
    assert np.array_equal(ok, ok_ref)
    monkeypatch.setattr(nevanlinna, "_fmt_proximity_columns", _fmt_columns_from_two_evaluations)
    want = verify_fmt(f, a, radii, FAST, form=2)
    for row, ref in zip(got["rows"], want["rows"]):
        for key in ("m_fa", "m_fSa_at_a", "m_fSf_inf", "m_fSa_inf"):
            assert row[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), key


def test_fmt_form1_envelope_coefficient_is_admissible():
    radii = tuple(np.geomspace(10.0, 200.0, 6))
    rep = verify_fmt(RealPoly([1.0, 0.0, 1.0]), ONE, radii, FAST, form=1)
    s = rep["summary"]
    assert s["coefficient_ok"], f"envelope coefficient {s['coefficient']} out of [−1, 1]"
    assert abs(s["coefficient"]) <= 1.0 + 1e-9


def test_fmt_form1_needs_two_radii():
    with pytest.raises(ValueError, match="two radii"):
        verify_fmt(RealPoly([1.0, 0.0, 1.0]), ONE, (2.0,), FAST, form=1)


def _hayman_case(k):
    """(f, a) for the form-1 battery: LeftPolys of degree 1–3 (k < 6), rationals
    with a quaternion denominator (k < 10), q² + q·i, f(0) = a, and |a| = 40."""
    rng = np.random.default_rng(k)
    a = Quaternion(*rng.normal(size=4))
    if k < 6:
        return LeftPoly(rng.normal(size=(2 + k % 3, 4))), a
    if k < 10:
        return SemiregularRational(LeftPoly(rng.normal(size=(2 + k % 3, 4))),
                                   LeftPoly(rng.normal(size=(2, 4)))), a
    if k == 10:
        return LeftPoly([[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]), a  # q² + q·i
    f = LeftPoly(rng.normal(size=(3, 4)))
    if k == 11:
        return f, Quaternion.from_array(f.coeffs[0])
    return f, a * (40.0 / a.norm())


@pytest.mark.parametrize("k", range(13))
def test_fmt_form1_meets_the_hayman_constant(k):
    """|T(f,a,r) − T(f,r) + log|g₀|| ≤ log⁺|a| + log 2 (Hayman, §1.2), g₀ the head of f − a.

    The slack is 3(σ_a + σ_∞) of the two T passes, and each row's T values
    are the bits of those passes run alone.
    """
    f, a = _hayman_case(k)
    radii = (0.4, 2.5, 15.0)
    cfg = IntegratorConfig(samples=20_000, seed=100 + k)
    rows = verify_fmt(f, a, radii, cfg, form=1)["rows"]
    at_a, at_inf = nevanlinna._radius_free(f, a), nevanlinna._radius_free(f, None)
    log_g0 = math.log((f - a).series_head()[0].norm())
    for r, row in zip(radii, rows):
        t_a, sigma_a = at_a.at(r, mean_batch([at_a.request(r)], cfg)[0][0])
        t_inf, sigma_inf = at_inf.at(r, mean_batch([at_inf.request(r)], cfg)[0][0])
        assert (row["T_a"], row["T_infinity"], row["residual"]) == (t_a, t_inf, t_a - t_inf)
        bound = max(math.log(a.norm()), 0.0) + math.log(2.0) + 3.0 * (sigma_a + sigma_inf)
        assert abs(row["residual"] + log_g0) <= bound, (r, row["residual"] + log_g0, bound)


def test_fmt_form2_forms_no_twist_of_a_slice_preserving_f(monkeypatch):
    """S_{f−a}(q) lies on S_q, where |f| is constant: m(f∘S_{f−a}, ∞) reads log|f|."""
    calls = []
    twisted = star_poly.StemEval.twisted

    def counting(self, shift):
        calls.append(shift)
        return twisted(self, shift)

    monkeypatch.setattr(star_poly.StemEval, "twisted", counting)
    rep = verify_fmt(RealPoly([1.0, 0.0, 1.0]), ONE, (1.5, 4.0), FAST, form=2)
    assert calls == []
    assert all(math.isfinite(row["m_fSa_inf"]) for row in rep["rows"])


# ---------------------------------------------------------------------------
# Characteristic algebra suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_rows():
    f = star_mul(linear(Quaternion(0, 1, 0, 0)), linear(Quaternion(0, 0, 1, 0)))
    g = RealPoly([0.74, -1.0, 1.0])
    radii = (2.0, 5.0, 12.0, 31.0)
    return characteristic_algebra_suite(f, g, ZERO, ONE, None, radii, CFG)


def row(rows, name):
    matches = [r for r in rows if r["identity"] == name]
    assert matches, f"suite is missing the {name} row"
    return matches[0]


def test_suite_memo_matches_direct_characteristic():
    """Memoized suite rows equal direct T evaluations, bit for bit."""
    f = star_mul(linear(Quaternion(0, 1, 0, 0)), linear(Quaternion(0, 0, 1, 0)))
    g = RealPoly([0.74, -1.0, 1.0])
    radii = (2.0, 5.0)
    rows = characteristic_algebra_suite(f, g, ZERO, ONE, None, radii, FAST)

    def T(fn, a, r):
        return characteristic(fn, a, r, FAST)

    want = {
        "target_shift": [T(f, ZERO, r) - T(f, ONE, r) for r in radii],
        "finite_target_gap": [T(f, ZERO, r) - T(f, None, r) for r in radii],
    }
    for name, values in want.items():
        assert row(rows, name)["per_radius"] == values, name


def test_suite_power_identities_are_exact(suite_rows):
    for name in ("star_power_2", "star_power_3"):
        r = row(suite_rows, name)
        assert r["pass"], f"{name}: residual {r['value']} beyond {r['gate']}"
        assert r["value"] <= 1e-9


def test_suite_subadditivity_slacks(suite_rows):
    for name in ("star_subadditivity", "plus_subadditivity"):
        r = row(suite_rows, name)
        assert r["pass"], f"{name}: worst slack {r['value']} below −3σ"


def test_suite_conjugation_is_exact(suite_rows):
    r = row(suite_rows, "conjugate_invariance")
    assert r["pass"] and r["value"] <= 1e-9


def test_suite_half_symmetrization_within_noise(suite_rows):
    r = row(suite_rows, "half_symmetrization_chain")
    assert r["pass"], f"T(f^c, a, r) − ½T(f^s, ∞, r) = {r['value']} beyond {r['gate']}"


def test_suite_sandwich_every_radius(suite_rows):
    lower = row(suite_rows, "sandwich_lower")
    upper = row(suite_rows, "sandwich_upper")
    assert lower["pass"], f"pointwise-true lower slack {lower['value']} < −1e-9"
    assert upper["pass"], f"mean-level upper slack {upper['value']} below −3σ"


def test_suite_reports_bounded_gap_for_balanced_reciprocal():
    """The reciprocal gap is genuinely bounded when the divisor is angularly balanced."""
    f = RealPoly([2.0, -2.0, 1.0])               # zeros through 1 + i: ξ² = η²
    g = RealPoly([0.5, -1.0, 1.0])
    radii = tuple(np.geomspace(10.0, 1000.0, 8))
    rows = characteristic_algebra_suite(f, g, ZERO, ONE, None, radii,
                                        IntegratorConfig(samples=4_000, seed=7))
    r = row(rows, "star_reciprocal")
    assert r["kind"] == "o1"
    assert r["slope_ok"], f"balanced reciprocal should be flat, slope = {r['slope']}"


def test_suite_reports_unbalanced_reciprocal_growth():
    """For zeros on a purely imaginary sphere the gap grows like r²/2 — reported, not gated."""
    f = RealPoly([1.0, 0.0, 1.0])
    g = RealPoly([0.74, -1.0, 1.0])
    radii = (2.0, 31.0)
    rows = characteristic_algebra_suite(f, g, ZERO, ONE, None, radii,
                                        IntegratorConfig(samples=4_000, seed=7))
    r = row(rows, "star_reciprocal")
    growth = r["per_radius"][-1] - r["per_radius"][0]
    want = (31.0**2 - 2.0**2) / 2.0
    assert abs(growth - want) <= 0.05 * want, (
        f"documented growth (r₁²−r₀²)/2 = {want}, measured {growth}"
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["polynomials", "rational"])
def test_suite_proximity_passes_run_on_slice_preserving_functions(kind, seed, monkeypatch):
    """Every proximity pass of the suite reads a real-coefficient function:
    the mixed term h + h^c with h = f * g^c is real by construction, even
    where f, g and the denominator of f have quaternion coefficients."""
    rng = np.random.default_rng(seed)
    f, g = (LeftPoly(rng.standard_normal((3, 4))) for _ in range(2))
    if kind == "rational":
        f = SemiregularRational(f, LeftPoly(rng.standard_normal((2, 4))))
    seen = []

    def recording(fn, finite, r):
        seen.append(fn)
        return None  # certified zero: nothing is drawn for it

    monkeypatch.setattr(nevanlinna, "_proximity_columns", recording)
    characteristic_algebra_suite(f, g, ZERO, ONE, None, (2.0, 5.0),
                                 IntegratorConfig(samples=1_000, seed=seed))
    assert seen and all(fn.is_real for fn in seen)


# ---------------------------------------------------------------------------
# Attainment bound and profiles
# ---------------------------------------------------------------------------


def test_attainment_excess_is_bounded():
    f = RealPoly([1.0, 0.0, 1.0])
    radii = tuple(np.geomspace(2.0, 50.0, 8))
    rep = n_bound_check(f, Quaternion(2, 0, 0, 0), radii, FAST)
    assert rep["sup_excess"] <= 1.0, f"N − T − H exceeded O(1) scale: {rep['sup_excess']}"
    assert len(rep["rows"]) == 8


def test_profile_of_origin_double_zero():
    f = RealPoly([1.0, 0.0, 1.0])
    radii = (2.0, 4.0, 8.0, 16.0)
    prof = NevanlinnaProfile.compute(f, ONE, radii, FAST)
    assert prof.N == pytest.approx(tuple(2.0 * math.log(r) for r in radii), abs=1e-12)
    assert all(m == 0.0 for m in prof.m), "|(f−1)^s| grows like r⁴ ≫ 1 on every sphere here"
    assert all(h == 0.0 for h in prof.H), "deflated head of q² is constant"
    assert prof.T == pytest.approx(prof.N, abs=1e-12)
    rows = list(prof.rows())
    assert len(rows) == len(radii)
    assert all(len(row) == len(NevanlinnaProfile.CSV_COLUMNS) for row in rows)
    assert [row[0] for row in rows] == list(radii)
    blob = prof.to_json()
    assert blob["config"]["seed"] == FAST.seed
