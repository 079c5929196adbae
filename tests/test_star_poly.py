"""Left polynomials, the *-product, symmetrization, and rational closures.

Covers the noncommutative product algebra (associativity, conjugation,
symmetrization multiplicativity), the *-evaluation identity, stem
evaluation against direct Horner evaluation, spherical value/derivative
decomposition, Blaschke modulus, and the 2x2 transform group.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import assume, example, given, settings, strategies as st

from quatnev import quat_core, star_poly
from quatnev.quat_core import (
    CHUNK,
    Quaternion,
    qmul,
    qnorm,
    slice_points,
    slice_units,
    slice_uv,
)
from quatnev.sph_integral import IntegratorConfig
from quatnev.star_poly import (
    DegenerateTransform,
    EvalAtPole,
    GL2H,
    LeftPoly,
    RealPointDegenerate,
    RealPoly,
    SemiregularRational,
    StemEval,
    UndefinedAtZeroPole,
    ZeroFunctionReciprocal,
    as_rational,
    corollary_decomposition_check,
    linear_fractional,
    spherical_conjugate,
    spherical_derivative,
    star_eval_identity_check,
    star_mul,
    star_power,
    _complex_powers,
)
from test_quat_core import sphere_points
from test_sph_integral import mean_log_abs

ATOL = 1e-9
COMPONENT = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False, width=64
)


def quats():
    return st.builds(Quaternion, COMPONENT, COMPONENT, COMPONENT, COMPONENT)


def polys(max_degree: int = 3):
    return st.lists(
        st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT),
        min_size=1,
        max_size=max_degree + 1,
    ).map(lambda rows: LeftPoly([list(r) for r in rows]))


def real_polys(max_degree: int = 12):
    return st.lists(COMPONENT, min_size=1, max_size=max_degree + 1).map(RealPoly)


def real_den_rationals():
    """g * h^{-*}: quaternion numerator, real denominator of scale at least 1e-100.

    The bound keeps |f| below 1e100, where Quaternion.norm can still square
    a component; the rational itself handles any denominator scale.
    """
    return st.tuples(polys(), real_polys(3)).filter(
        lambda nd: nd[1].coeff_scale() >= 1e-100
    ).map(lambda nd: SemiregularRational(*nd))


def real_rationals():
    """Slice-preserving g * h^{-*}: real numerator and denominator, the latter of scale at least 1e-100."""
    return st.tuples(real_polys(3), real_polys(3)).filter(
        lambda nd: nd[1].coeff_scale() >= 1e-100
    ).map(lambda nd: SemiregularRational(*nd))


def quat_den_rationals():
    """g * h^{-*} with a quaternion denominator of scale at least 1e-100."""
    return st.tuples(polys(2), polys(2)).filter(
        lambda nd: nd[1].coeff_scale() >= 1e-100
    ).map(lambda nd: SemiregularRational(*nd))


ONE = Quaternion(1, 0, 0, 0)
Q_IDENT = LeftPoly.identity()


# ---------------------------------------------------------------------------
# The polynomial class
# ---------------------------------------------------------------------------


@given(st.one_of(polys(), real_polys(3)), st.one_of(polys(), real_polys(3)), quats())
@settings(max_examples=150)
def test_real_coefficients_make_a_realpoly(f, g, a):
    """Every construction returns a RealPoly exactly when the imaginary components are zero."""
    results = [LeftPoly(f.coeffs), LeftPoly([list(row) for row in f.coeffs]), f + g, f - g,
               f.scale_left(a), f.conjugate(), star_mul(f, g), f.symmetrize()]
    for p in results:
        assert isinstance(p, RealPoly) == (not np.any(p.coeffs[:, 1:]))
        assert p.is_real == isinstance(p, RealPoly)


@given(polys())
def test_realpoly_refuses_quaternion_rows(f):
    assume(not isinstance(f, RealPoly))
    with pytest.raises(ValueError, match="real coefficients"):
        RealPoly(f.coeffs)


@pytest.mark.parametrize("coeffs", [
    [math.inf, 1.0],
    np.array([math.inf, 1.0]),
    [[math.inf, 0, 0, 0], [1, 0, 0, 0]],
], ids=["scalars", "real-array", "rows"])
def test_every_input_form_refuses_a_non_finite_coefficient(coeffs):
    with pytest.raises(ValueError, match="finite"):
        LeftPoly(coeffs)


# ---------------------------------------------------------------------------
# *-product algebra
# ---------------------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=100)
def test_star_product_is_associative(f, g, h):
    lhs = star_mul(star_mul(f, g), h)
    rhs = star_mul(f, star_mul(g, h))
    scale = max(lhs.coeff_scale(), rhs.coeff_scale(), 1.0)
    assert lhs.equals(rhs, ATOL * scale), "(f*g)*h ≠ f*(g*h)"


@given(polys(), polys(), polys())
@settings(max_examples=100)
def test_star_product_distributes(f, g, h):
    lhs = star_mul(f, g + h)
    rhs = star_mul(f, g) + star_mul(f, h)
    scale = max(lhs.coeff_scale(), rhs.coeff_scale(), 1.0)
    assert lhs.equals(rhs, ATOL * scale), "f*(g+h) ≠ f*g + f*h"


def _star_mul_per_coefficient(f, g):
    """The *-product with one qmul per coefficient of f, its rows summed
    into the product in the order star_mul sums them."""
    a, b = f.coeffs, g.coeffs
    out = np.zeros((a.shape[0] + b.shape[0] - 1, 4))
    for i in range(a.shape[0]):
        out[i : i + b.shape[0]] += qmul(a[i], b)
    return LeftPoly(out)


def _lead_scaled(f, s):
    lead = f.coeffs.copy()
    lead[-1] *= s
    return type(f)(lead)


@given(
    st.one_of(polys(5), real_polys(5)).filter(lambda f: not f.is_zero),
    polys(5).filter(lambda g: not g.is_zero),
    st.sampled_from(["plain", "conjugate", "underflow"]),
)
@settings(max_examples=300)
def test_star_mul_keeps_the_per_coefficient_bits(f, g, lead):
    """LeftPoly×LeftPoly and RealPoly×LeftPoly, also where the leading
    coefficient of the product cancels: its imaginary part ("conjugate":
    b_m = ā_n) or all of it (it underflows to 0, so the degree drops)."""
    if lead == "conjugate":
        rows = g.coeffs.copy()
        rows[-1] = f.coeffs[-1] * [1.0, -1.0, -1.0, -1.0]
        g = LeftPoly(rows)
    elif lead == "underflow":
        f, g = _lead_scaled(f, 1e-200), _lead_scaled(g, 1e-200)
    got, want = star_mul(f, g), _star_mul_per_coefficient(f, g)
    assert type(got) is type(want)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@given(polys(), polys())
@settings(max_examples=100)
def test_conjugate_reverses_star_products(f, g):
    lhs = star_mul(f, g).conjugate()
    rhs = star_mul(g.conjugate(), f.conjugate())
    scale = max(lhs.coeff_scale(), 1.0)
    assert lhs.equals(rhs, ATOL * scale), "(f*g)^c ≠ g^c * f^c"


@given(polys(), polys())
@settings(max_examples=100)
def test_symmetrization_is_real_and_multiplicative(f, g):
    fs = f.symmetrize()
    assert fs.is_real, "f^s must have real coefficients"
    prod_s = star_mul(f, g).symmetrize()
    split_s = star_mul(fs, g.symmetrize())
    scale = max(prod_s.coeff_scale(), 1.0)
    assert prod_s.equals(split_s, ATOL * scale), "(f*g)^s ≠ f^s · g^s"


@pytest.mark.parametrize("f", [
    LeftPoly([[-0.5e160, -0.7e160, 0, 0], [1e160, 0, 0, 0]]),
    RealPoly([1.0, 3e160]),
])
def test_symmetrization_overflow_is_a_named_error(f):
    """Coefficients of f^s past the float range raise OverflowError, not the realness gate."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match=r"f\^s overflows.*coefficient scale"):
            f.symmetrize()


def _seeded_polys(seed: int, scale: float, count: int = 12):
    """Seeded quaternion polys of degree 0–13 with injected ±0 components, at scale."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.standard_normal((int(rng.integers(1, 15)), 4)) * scale
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        a[-1, 0] = scale  # keep the degree
        yield LeftPoly(a)


@pytest.mark.parametrize("k", [-500, 0, 500])
@pytest.mark.parametrize("seed", range(4))
def test_symmetrize_has_the_bits_of_the_real_column_of_f_star_fc(seed, k):
    """f^s, summed from the real dots, is the real column of star_mul(f, f^c) bit for bit,
    and that product's imaginary columns are rounding noise under 1e-9·scale²."""
    for f in _seeded_polys(seed, 2.0**k):
        prod = star_mul(f, f.conjugate())
        want = RealPoly(prod.coeffs[:, 0]).real_coeffs
        got = f.symmetrize().real_coeffs
        assert got.tobytes() == want.tobytes(), f"f^s moved a bit for {f.coeffs!r}"
        residue = float(np.abs(prod.coeffs[:, 1:]).max(initial=0.0))
        assert residue <= 1e-9 * f.coeff_scale() ** 2


def test_symmetrize_of_an_overflowing_leftpoly_raises_overflow():
    for f in _seeded_polys(7, 2.0**520, count=4):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match=r"f\^s overflows"):
                f.symmetrize()


@pytest.mark.parametrize("f", [
    LeftPoly([[0.3e160, 0.2e160, -0.1e160, 0.4e160], [1e160, 0, 0, 0]]),
    RealPoly([1.0, 3e160]),
])
def test_overflowing_star_product_is_a_named_error(f):
    """A *-product past the float range raises OverflowError, not the finiteness check."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=r"f\*g overflows"):
            star_power(f, 2)


@given(polys().filter(lambda f: abs(f(Quaternion(0, 0, 0, 0))) > 0.05), quats())
@settings(max_examples=150)
def test_star_evaluation_identity(f, q):
    """f*g evaluated at q equals f(q) · g(f(q)⁻¹ q f(q)) whenever f(q) ≠ 0."""
    g = Q_IDENT + LeftPoly.constant(Quaternion(0.3, -0.1, 0.2, 0.0))
    if abs(f(q)) < 1e-6:
        return
    residual = star_eval_identity_check(f, g, q)
    scale = 1.0 + abs(f(q)) * (1.0 + abs(q))
    assert residual <= 1e-8 * scale, f"*-evaluation identity residual {residual}"


def test_star_power_matches_repeated_product():
    f = LeftPoly([[0.5, 0.2, 0, 0], [1, 0, 0, 0], [0, 0, 0.3, 0]])
    p3 = star_power(f, 3)
    byhand = star_mul(star_mul(f, f), f)
    assert p3.equals(byhand, 1e-12 * byhand.coeff_scale())
    assert star_power(f, 1).equals(f, 0.0)
    with pytest.raises(ValueError):
        star_power(f, 0)


# ---------------------------------------------------------------------------
# Pointwise modulus factorization |f^s| = |f| · |f ∘ S_f|
# ---------------------------------------------------------------------------


SHIFT = Quaternion(0.4, -0.3, 0.2, 0.5)
# the quaternion quadratic of the selftest
QUADRATIC = [[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]]


def _minus(f, a):
    """f − a (f itself for a = None)."""
    return f if a is None else f - a


def _coeff_scale(f):
    """max |a_k| of a polynomial; for a rational, that of its numerator over that of its denominator."""
    if isinstance(f, SemiregularRational):
        return max(f.num.coeff_scale(), 1e-300) / max(f.den.coeff_scale(), 1e-300)
    return f.coeff_scale()


def _well_conditioned(f, se):
    """Rows where a rational's |h^s| is well above its rounding scale; all rows of a polynomial."""
    if not isinstance(f, SemiregularRational):
        return np.ones(se.pts.uv[0].shape[0], dtype=bool)
    u, v = se.pts.uv
    c = f.den_s.real_coeffs
    hs = f.den_s.real_stems(u + 1j * v)
    radius = np.hypot(u, v)
    return np.abs(hs) > 1e-3 * (np.abs(c) @ radius[None, :] ** np.arange(c.size)[:, None])


@given(st.one_of(polys(), quat_den_rationals()), st.sampled_from([None, SHIFT]))
# |g^s| near 1e167, whose square overflows
@example(SemiregularRational(LeftPoly([[1.5, 0, 0, 0]]), LeftPoly([[2e-84, 1e-84, 0, 0]])), None)
@settings(max_examples=100, deadline=None)
def test_symmetrization_modulus_splits(f, shift):
    """|g^s| = |g|·|g∘S_g| pointwise for g = f − a, from the batch twisted value."""
    pts = sphere_points(1.3, 9, 32)
    se = f.stems(pts)
    gs = _minus(f, shift).symmetrize()
    mask = _well_conditioned(f, se)
    vals_s = np.array([abs(gs(Quaternion.from_array(p))) if keep else 0.0
                       for p, keep in zip(pts, mask)])
    twisted, ok = se.twisted(shift)
    a = np.zeros(4) if shift is None else shift.to_array()
    lhs = se_norm(se.value() - a) * se_norm(twisted - a)
    mask &= ok & se.ok
    scale = 1.0 + vals_s[mask]
    assert np.all(np.abs(lhs[mask] - vals_s[mask]) <= 1e-8 * scale), (
        "|g|·|g∘S_g| must equal |g^s| pointwise"
    )


@pytest.mark.parametrize("k", [0, -30, -80, -600])
@pytest.mark.parametrize("a", [Quaternion(1.0), Quaternion(0.5, 0.1, 0.0, 0.0)], ids=["1", "0.5+0.1i"])
def test_twisted_value_lies_in_the_range_of_f_on_its_sphere(k, a):
    """f(S_{f−a}(q)) = P + J·Q for a unit J, so ||P| − |Q|| ≤ |f(S_{f−a}(q))| ≤ |P| + |Q|
    at every scale 2^k of f, also where |f| is far below |a|."""
    f = LeftPoly(np.ldexp(np.array(QUADRATIC), k))
    se = f.stems(sphere_points(1.3, 5, 256))
    lat, ok = se.log_abs_twisted(a)
    p, q = (qnorm(np.ldexp(x, -k)) for x in (se.P, se.Q))  # |P|, |Q| at unit scale, exactly
    with np.errstate(divide="ignore"):
        lo = np.log(np.abs(p - q)) + k * math.log(2.0)
    hi = np.log(p + q) + k * math.log(2.0)
    assert ok.all()
    outside = (lat < lo - 1e-9) | (lat > hi + 1e-9)
    assert not outside.any(), f"{outside.mean():.0%} of the twisted values lie outside the range"


@given(st.one_of(polys(5).filter(lambda f: f.degree >= 2), quat_den_rationals()),
       st.sampled_from([None, SHIFT]))
@settings(max_examples=100, deadline=None)
def test_twisted_value_matches_scalar_spherical_conjugate(f, shift):
    """Batch f(S_{f−a}(q)) against the scalar f(spherical_conjugate(f − a, q))."""
    pts = sphere_points(1.3, 9, 32)
    se = f.stems(pts)
    val, ok = se.twisted(shift)
    lat, ok_log = se.log_abs_twisted(shift)
    assert np.array_equal(ok, ok_log)
    g = _minus(f, shift)
    g_rat = as_rational(g)
    deg = max(g_rat.num.degree, g_rat.den.degree, 1)
    for i in np.nonzero(ok & se.ok & _well_conditioned(f, se))[0]:
        q = Quaternion.from_array(pts[i])
        scale = _coeff_scale(g) * (1.0 + abs(q)) ** deg
        # off the scalar route's reflection branch S(q) = q̄, and off zeros of g
        if abs(g(q)) < 1e-4 * scale or abs(spherical_derivative(g, q)) < 1e-4 * scale:
            continue
        try:
            want = f(spherical_conjugate(g, q))
        except UndefinedAtZeroPole:
            continue
        got = Quaternion.from_array(val[i])
        assert abs(got - want) <= 1e-9 * (abs(want) + scale), f"row {i}: {got} ≠ {want}"
        if abs(want) > 1e-4 * scale:
            assert abs(lat[i] - math.log(abs(want))) <= 1e-9, f"row {i}: log-modulus"


@pytest.mark.parametrize("s", [1e160, 1e-160, 1e200, 1e-200])
@pytest.mark.parametrize("kind", ["leftpoly", "rational"])
def test_log_moduli_do_not_depend_on_scale(kind, s):
    """The log-moduli of s·f are those of f plus log s, with the same masks.

    Squaring |f| overflows at s = 1e160 and underflows at s = 1e-160; rows
    in the normal range keep log(qnorm(value)) bit for bit.
    """
    rng = np.random.default_rng(5)
    num, den = rng.normal(size=(4, 4)), rng.normal(size=(3, 4))

    def build(scale):
        if kind == "leftpoly":
            return LeftPoly(num * scale)
        return SemiregularRational(LeftPoly(num * scale), LeftPoly(den))

    pts = slice_points(sphere_points(1.6, 7, 4096))
    se, ses = build(1.0).stems(pts), build(s).stems(pts)
    norms = qnorm(se.value())
    assert _same_bits(se.log_abs(), np.log(norms))
    a = Quaternion(0.3, -0.2, 0.5, 0.1)
    pairs = [
        ((se.log_abs(), se.ok), (ses.log_abs(), ses.ok)),
        ((se.log_abs_conj_point(), se.ok), (ses.log_abs_conj_point(), ses.ok)),
        (se.log_abs_twisted(None), ses.log_abs_twisted(None)),
        (se.log_abs_twisted(a), ses.log_abs_twisted(a * s)),
    ]
    for (la, ok), (la_s, ok_s) in pairs:
        assert ok.all() and np.array_equal(ok, ok_s)
        assert np.all(np.abs(la_s - (la + math.log(s))) <= 1e-12)
    for shift, shift_s in ((None, None), (a, a * s)):
        val, _ = se.twisted(shift)
        val_s, _ = ses.twisted(shift_s)
        assert np.all(se_norm(val_s / s - val) <= 1e-12 * se_norm(val))


def test_twisted_log_modulus_where_only_the_summed_stem_norm_overflows():
    """|P|² and |Q|² fit a float but |P|² + |Q|² does not (|P| = |Q| = 1e154).

    _rescaled takes the infinite sum without an overflow warning (an error
    under the suite's filter), and log|f∘S_f| is that of the unit-scale
    stems plus log 1e154.
    """
    rng = np.random.default_rng(3)
    P, Q = rng.normal(size=(2, 64, 4))
    P /= np.linalg.norm(P, axis=1)[:, None]
    Q /= np.linalg.norm(Q, axis=1)[:, None]
    pts, ok = slice_points(sphere_points(1.7, 21, 64)), np.ones(64, dtype=bool)
    s = 1e154
    la, _ = StemEval(pts, ok, P, Q).log_abs_twisted(None)
    la_s, ok_s = StemEval(pts, ok, P * s, Q * s).log_abs_twisted(None)
    assert ok_s.all() and np.isfinite(la_s).all()
    assert np.all(np.abs(la_s - (la + math.log(s))) <= 1e-12)


def se_norm(arr):
    return np.linalg.norm(arr, axis=1)


def test_real_polynomial_is_sphere_symmetric_bitwise():
    f = RealPoly([1.0, 0.0, 1.0])
    pts = sphere_points(2.0, 4, 512)
    se = f.stems(pts)
    la = se.log_abs()
    lat, ok = se.log_abs_twisted(None)
    assert np.array_equal(la, lat), "slice-preserving twist must be bitwise exact"


# ---------------------------------------------------------------------------
# Stems agree with direct evaluation
# ---------------------------------------------------------------------------


@given(st.one_of(polys(), real_polys(), real_den_rationals()))
@settings(max_examples=100)
def test_stem_values_match_horner(f):
    pts = sphere_points(1.7, 21, 16)
    se = f.stems(pts)
    if isinstance(f, SemiregularRational):
        # keep |h^s| well above its rounding scale so the quotient is well conditioned
        c = f.den_s.real_coeffs
        u, v = se.pts.uv
        hs = f.den_s.real_stems(u + 1j * v)
        assume(np.all(np.abs(hs) > 1e-3 * (np.abs(c) @ 1.7 ** np.arange(c.size))))
    vals = se.value()
    for i, p in enumerate(pts):
        want = f(Quaternion.from_array(p))
        got = Quaternion.from_array(vals[i])
        scale = 1.0 + abs(want)
        assert abs(got - want) <= 1e-9 * scale, f"stem row {i}: {got} ≠ {want}"


def _eager_stems(f, pts):
    """Every stem field built eagerly from slice_uv and slice_units, as one dict."""
    u, v = slice_uv(pts)
    I = slice_units(pts, v)
    fields = {"u": u, "v": v, "I": I, "w": None}
    if isinstance(f, SemiregularRational):
        base = _eager_stems(f.num_eff, pts)
        hs = _eager_real_stems(f.den_s, u, v)
        A, B = hs.real, hs.imag
        mod2 = A * A + B * B
        tol = 1e-12 * (1.0 + np.hypot(u, v)) ** max(f.den_s.degree, 1)
        ok = mod2 >= tol * tol
        safe = np.where(ok, mod2, 1.0)
        ra, rb = A / safe, B / safe
        if f.is_real:
            An, Bn = base["w"].real, base["w"].imag
            w = np.empty(u.shape, dtype=complex)
            w.real, w.imag = ra * An + rb * Bn, ra * Bn - rb * An
            return {**fields, **_embedded(w), "ok": ok, "w": w}
        P = ra[:, None] * base["P"] + rb[:, None] * base["Q"]
        Q = ra[:, None] * base["Q"] - rb[:, None] * base["P"]
        return {**fields, "P": P, "Q": Q, "ok": ok}
    ok = np.ones(u.shape[0], dtype=bool)
    if isinstance(f, RealPoly):
        w = _eager_real_stems(f, u, v)
        return {**fields, **_embedded(w), "ok": ok, "w": w}
    c, s = _complex_powers(u, v, max(f.degree, 0))
    if f.is_zero:
        P, Q = np.zeros((u.shape[0], 4)), np.zeros((u.shape[0], 4))
    else:
        P = np.tensordot(c, f.coeffs, axes=(0, 0))
        Q = np.tensordot(s, f.coeffs, axes=(0, 0))
    return {**fields, "P": P, "Q": Q, "ok": ok}


def _eager_real_stems(f, u, v):
    """The complex stem w = f(u + iv) of a RealPoly, by NumPy's polyval."""
    if f.is_zero:
        return np.zeros_like(u, dtype=complex)
    return np.polynomial.polynomial.polyval(u + 1j * v, f.real_coeffs)


def _embedded(w):
    P, Q = np.zeros((w.shape[0], 4)), np.zeros((w.shape[0], 4))
    P[:, 0], Q[:, 0] = w.real, w.imag
    return {"P": P, "Q": Q}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.one_of(polys(), real_polys(), real_den_rationals(), quat_den_rationals(),
                 real_rationals()))
@settings(max_examples=100, deadline=None)
def test_lazy_stem_fields_equal_eager_construction_bitwise(f):
    raw = sphere_points(1.7, 21, 16)
    raw[3, 1:] = 0.0  # a real point takes the fallback I
    shared = slice_points(raw)
    for pts in (raw, shared, shared):  # a plain array, then a batch read twice
        se = f.stems(pts)
        want = _eager_stems(f, raw)
        fields = {"u": lambda: se.pts.uv[0], "v": lambda: se.pts.uv[1], "I": lambda: se.pts.I,
                  "P": lambda: se.P, "Q": lambda: se.Q, "ok": lambda: se.ok}
        for name, field in fields.items():
            assert _same_bits(field(), want[name]), f"field {name} differs"
            assert field() is field(), f"field {name} formed twice"
        if want["w"] is None:
            assert se.w is None
        else:
            assert _same_bits(se.w, want["w"])
        assert _same_bits(se.value(), want["P"] + qmul(want["I"], want["Q"]))
        assert _same_bits(se.value_conj_point(), want["P"] - qmul(want["I"], want["Q"]))
        # twisted on a StemEval whose P and Q were given eagerly
        eager = StemEval(slice_points(raw), want["ok"], want["P"], want["Q"])
        for got, ref in zip(se.twisted(None), eager.twisted(None)):
            assert _same_bits(got, ref), "twisted evaluation differs"


@pytest.mark.parametrize("f", [
    LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]]),
    SemiregularRational(LeftPoly([[1, 0, 0, 0], [0.2, 0.1, 0, 0]]),
                        LeftPoly([[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]])),
    RealPoly([1.0, 0.0, 1.0]),
], ids=["leftpoly", "quaternion-rational", "realpoly"])
def test_stem_quaternion_arrays_keep_contiguous_rows(f):
    """P, Q, I, value() and the twisted values are (n, 4) views of C-order (4, n) rows."""
    raw = sphere_points(1.7, 21, 64)
    for pts in (raw, slice_points(raw)):
        se = f.stems(pts)
        twisted = se.twisted(Quaternion(0.1, 0.2, 0.0, 0.0))[0]
        for name, x in [("P", se.P), ("Q", se.Q), ("I", se.pts.I), ("value", se.value()),
                        ("twisted", twisted), ("pts", se.pts)]:
            assert x.shape == (64, 4) and x.T.flags.c_contiguous, f"{name} lost its rows"


def test_real_stems_read_only_z(monkeypatch):
    """A slice-preserving evaluation forms neither I nor P, Q unless read."""
    def unread(*args):
        raise AssertionError("formed a field that nothing read")

    pts = slice_points(sphere_points(2.0, 4, 64))
    with monkeypatch.context() as m:
        m.setattr(quat_core, "slice_units", unread)
        m.setattr(star_poly, "_real_part_quat", unread)
        se = RealPoly([1.0, 0.0, 1.0]).stems(pts)
        la = se.log_abs()
        assert la is se.log_abs_conj_point() is se.log_abs_twisted(None)[0]
    assert not la.flags.writeable, "the shared log-modulus must be read-only"


def test_conj_point_log_modulus_differs_for_generic_coefficients():
    """log|f(q̄)| read off the stems is that of pointwise evaluation, and not log|f(q)|."""
    f = LeftPoly([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    raw = sphere_points(1.5, 4, 64)
    se = f.stems(slice_points(raw))
    lac = se.log_abs_conj_point()
    assert not np.array_equal(lac, se.log_abs())
    want = [math.log(f(Quaternion.from_array(q).conj()).norm()) for q in raw]
    assert np.allclose(lac, want, rtol=0.0, atol=1e-12)


def test_in_place_horner_keeps_polyval_bits():
    """RealPoly stems run polyval's ufunc sequence in place, so they keep its bits."""
    pts = slice_points(sphere_points(1.7, 3, CHUNK))
    z = pts.z
    rng = np.random.default_rng(11)
    cases = [[0.0], [2.5], [0.0, 0.0, 0.0, 1.0]]
    cases += [rng.normal(size=degree + 1) for degree in range(13)]
    for c in cases:
        w = RealPoly(c).stems(pts).w
        want = np.zeros_like(z) if not np.any(c) else np.polynomial.polynomial.polyval(z, c)
        assert _same_bits(w, want), f"coefficients {c}"


@pytest.mark.parametrize("c", [1e-200, 1e200])
@pytest.mark.parametrize("kind", ["poly", "rational"])
def test_complex_modulus_is_scale_free(kind, c):
    """log|w| of c·(q²+1), or of c·(q²+1)/h with h real, is that at c = 1 plus log c."""
    def build(scale):
        num = RealPoly([scale, 0.0, scale])
        return num if kind == "poly" else SemiregularRational(num, RealPoly([0.3, -0.2, 1.0]))

    pts = slice_points(sphere_points(1.6, 7, 4096))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        se, ses = build(1.0).stems(pts), build(c).stems(pts)
        la, la_s = se.log_abs(), ses.log_abs()
        assert ses.w is not None and se.ok.all() and ses.ok.all()
        assert np.all(np.abs(la_s - (la + math.log(c))) <= 1e-12)
        # the same array, so the mpb-check defect of a slice-preserving f is exactly 0
        assert ses.log_abs_conj_point() is la_s
        assert ses.log_abs_twisted(None)[0] is la_s
        assert ses.log_abs_twisted(SHIFT)[0] is la_s


@pytest.mark.parametrize("f, a", [
    (LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]]), SHIFT),
    (SemiregularRational(LeftPoly([[1, 0.2, 0, 0], [0, 0, 1, 0]]), RealPoly([0.5, 0.0, 1.0])),
     SHIFT),
    (SemiregularRational(LeftPoly([[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]]),
                         LeftPoly([[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]])), SHIFT),
    (RealPoly([1.0, 0.0, 1.0]), Quaternion(0.5)),
    (RealPoly([1.0, 0.0, 1.0]), SHIFT),
    (SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.3, -0.2, 1.0])), Quaternion(0.5)),
])
def test_shifted_stems_match_stems_of_the_shifted_function(f, a):
    """StemEval.minus(a) gives the stems of f − a: the same Q and ok, P − a to rounding."""
    pts = slice_points(sphere_points(1.6, 7, 4096))
    se = f.stems(pts)
    got = se.minus(a)
    want = _minus(f, a).stems(pts)
    assert got.ok is se.ok and np.array_equal(got.ok, want.ok)
    # a real shift of a slice-preserving f stays on the complex path
    assert (got.w is not None) == (se.w is not None and a.is_real())
    scale = 1.0 + se_norm(want.value())
    assert np.all(se_norm(got.value() - want.value()) <= 1e-12 * scale)
    assert np.all(se_norm(got.Q - want.Q) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Least real denominator and scale of rationals
# ---------------------------------------------------------------------------


def test_star_power_symmetrization_keeps_its_mean_log_modulus():
    """For real f, star_power(f, 3)^s = f⁶, so its mean log-modulus is 6× that of f.

    A denominator squared again at each product would reach degree 80
    instead of 12, and its pole guard would reject most samples.
    """
    f = SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.3, -0.2, 1.0]))
    f6 = star_power(f, 3).symmetrize()
    cfg = IntegratorConfig(samples=20_000, seed=2026)
    got = mean_log_abs(f6, 2.0, cfg)
    want = mean_log_abs(f, 2.0, cfg)
    assert abs(got.value - 6.0 * want.value) <= 1e-9 * (1.0 + abs(got.value))


def test_tiny_constant_denominator_is_not_a_pole():
    """f = g * h^{-*} with the constant h = 1e-96 is 1e96·g, with no pole."""
    g = LeftPoly([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    q = Quaternion(0.4, 0.3, -0.2, 0.1)
    got = SemiregularRational(g, RealPoly([1e-96]))(q)
    want = g(q) * 1e96
    assert (got - want).norm() <= 1e-12 * abs(want)


F_REAL = SemiregularRational(RealPoly([1.0, 0.0, 1.0]), RealPoly([0.3, -0.2, 1.0]))


@pytest.mark.parametrize("build, degree", [
    (lambda f: f, 2),
    (lambda f: star_power(f, 2), 4),
    (lambda f: star_power(f, 3), 6),
    (lambda f: star_power(f, 3).symmetrize(), 12),
    (lambda f: f.conjugate(), 2),
    (lambda f: f.symmetrize(), 4),
    (lambda f: f + f, 4),
    (lambda f: f.star_reciprocal(), 2),
], ids=["f", "star_power2", "star_power3", "star_power3_symmetrize", "conjugate",
        "symmetrize", "sum", "star_reciprocal"])
def test_real_rational_algebra_keeps_the_least_real_denominator(build, degree):
    """A real denominator is never squared: num_eff and den_s keep the degree of f's algebra."""
    g = build(F_REAL)
    assert (g.num_eff.degree, g.den_s.degree) == (degree, degree)


QUAT_DEN = LeftPoly([[0.3, 0.1, 0.0, 0.0], [-0.2, 0.0, 0.4, 0.0], [1.0, 0.0, 0.0, 0.2]])


@pytest.mark.parametrize("s", [1e-160, 1e-96, 1e-20, 1e96, 1e160])
@pytest.mark.parametrize("den", [RealPoly([0.3, -0.2, 1.0]), QUAT_DEN],
                         ids=["real", "quaternion"])
def test_scaled_denominator_divides_the_value(den, s):
    """The denominator h·s gives f/s, at a point and on every stem row."""
    g = LeftPoly([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    f = SemiregularRational(g, den)
    f_s = SemiregularRational(g, LeftPoly(den.coeffs * s))
    q = Quaternion(0.4, 0.3, -0.2, 0.1)
    want = f(q)
    assert abs(f_s(q) * s - want) <= 1e-12 * abs(want)
    pts = sphere_points(1.3, 3, 64)
    se, se_s = f.stems(pts), f_s.stems(pts)
    assert se.ok.all() and se_s.ok.all()
    assert np.all(se_norm(se_s.value() * s - se.value()) <= 1e-12 * se_norm(se.value()))


# ---------------------------------------------------------------------------
# Series head, origin order, deflation
# ---------------------------------------------------------------------------


def test_series_head_is_value_and_derivatives():
    f = LeftPoly([[1, 1, 0, 0], [0, 0, 2, 0], [0.5, 0, 0, 1], [3, 0, 0, 0]])
    a0, a1, a2twice = f.series_head()
    assert (a0 - f.coefficient(0)).norm() <= 0.0
    assert (a1 - f.coefficient(1)).norm() <= 0.0
    assert (a2twice - f.coefficient(2) * 2.0).norm() <= 0.0, "third slot is f″(0) = 2a₂"
    # a zero of order 2 at 0: the head of q^{−2}·(q²·f) is that of f
    g = LeftPoly([[0, 0, 0, 0], [0, 0, 0, 0], *f.coeffs.tolist()])
    assert [x.to_array().tolist() for x in g.series_head()] == [
        x.to_array().tolist() for x in f.series_head()]


def test_origin_order_and_deflation():
    f = LeftPoly([[0, 0, 0, 0], [0, 0, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0]])
    assert f.origin_order() == 2
    d0, d1, d2 = f.series_head()
    assert (d0 - Quaternion(2, 1, 0, 0)).norm() <= 0.0
    assert (d1 - Quaternion(0, 0, 1, 0)).norm() <= 0.0
    assert (d2 - Quaternion()).norm() <= 0.0


# ---------------------------------------------------------------------------
# Spherical value / derivative decomposition
# ---------------------------------------------------------------------------


@given(polys(), quats().filter(lambda q: q.abs_im() > 0.1))
@example(LeftPoly([[1, 0, 0, 0]] * 4), Quaternion(0, 0, 0, 0.99999))
@settings(max_examples=150)
def test_spherical_decomposition(f, q):
    try:
        residual = corollary_decomposition_check(f, q)
    except UndefinedAtZeroPole:
        assume(False)  # q landed on the zero set of f^s, where S_f is undefined
        return
    scale = 1.0 + abs(f(q))
    assert residual <= 1e-8 * scale, f"f ≠ f°_s + Im(q)·f'_s at {q} (residual {residual})"


def test_spherical_decomposition_near_a_double_zero_sphere():
    """f = (q − k)*(q − k) at q = 0.99999k, 1e-5 from its double zero sphere |q| = 1, Re q = 0.

    The property above drew a degree-3 case of this kind; this one pins it
    without depending on the draw.
    """
    f = LeftPoly([[-1, 0, 0, 0], [0, 0, 0, -2], [1, 0, 0, 0]])
    q = Quaternion(0, 0, 0, 0.99999)
    residual = corollary_decomposition_check(f, q)
    assert residual <= 1e-8 * (1.0 + abs(f(q))), f"residual {residual}"


@given(polys(), quats().filter(lambda q: q.abs_im() > 0.1))
@settings(max_examples=150)
def test_spherical_parts_are_constant_on_the_sphere(f, q):
    qc = q.conj()
    gap = spherical_derivative(f, q) - spherical_derivative(f, qc)
    assert gap.norm() <= 1e-8 * (1 + abs(f(q)))


def test_spherical_conjugate_compensates():
    """|f(S_f(q))| · |f(q)| = |f^s(q)| with S_f evaluated directly."""
    f = LeftPoly([[0.2, 0.5, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0.4]])
    fs = f.symmetrize()
    for seed in range(4):
        q = Quaternion.from_array(sphere_points(1.4, seed, 1)[0])
        sq = spherical_conjugate(f, q)
        lhs = abs(f(q)) * abs(f(sq))
        rhs = abs(fs(q))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + rhs), f"seed {seed}: {lhs} ≠ {rhs}"


#: the quadratic and the rational of the selftest's decomposition row
SELFTEST_QUADRATIC = LeftPoly([[0.3, 0.2, -0.1, 0.4], [1, 0.5, 0, -0.3], [1, 0, 0, 0]])
SELFTEST_RATIONAL = SemiregularRational(LeftPoly([[1, 0.2, 0, 0], [1, 0, 0, 0]]),
                                        LeftPoly([[0.25, 0, 0.1, 0.3], [1, 0, 0, 0]]))


def _scaled(f, k):
    """2^k·f, exactly: the numerator alone is scaled for a rational."""
    if isinstance(f, SemiregularRational):
        return SemiregularRational(LeftPoly(np.ldexp(f.num.coeffs, k)), f.den)
    return LeftPoly(np.ldexp(f.coeffs, k))


@pytest.mark.parametrize("k", [1, -1, 27, -27, 60, -60, 100, -100, 300, -300])
@pytest.mark.parametrize("f", [SELFTEST_QUADRATIC, SELFTEST_RATIONAL], ids=["quadratic", "rational"])
def test_spherical_conjugate_does_not_depend_on_scale(f, k):
    """S_{2^k·f}(q) is S_f(q) bit for bit: both guards of the map scale with f."""
    q = Quaternion(0.7, 0.4, -0.2, 0.5)
    want = spherical_conjugate(f, q).to_array()
    got = spherical_conjugate(_scaled(f, k), q).to_array()
    assert got.tobytes() == want.tobytes(), f"{got} ≠ {want}"


@pytest.mark.parametrize("k", [0, 60])
def test_spherical_conjugate_is_undefined_on_a_zero_sphere_at_every_scale(k):
    """f = (q − α)*(q + β) at q = Re α + |Im α|·(0.6j + 0.8k), on the zero sphere of α."""
    alpha = Quaternion(0.3, 0.5, -0.4, 0.2)
    f = (LeftPoly([(-alpha).to_array(), [1, 0, 0, 0]])
         * LeftPoly([[0.7, 0.1, 0.2, -0.3], [1, 0, 0, 0]]))
    v = alpha.abs_im()
    q = Quaternion(0.3, 0.0, 0.6 * v, 0.8 * v)
    with pytest.raises(UndefinedAtZeroPole):
        spherical_conjugate(_scaled(f, k), q)
    with pytest.raises(UndefinedAtZeroPole):
        corollary_decomposition_check(_scaled(f, k), q)


def test_spherical_conjugate_is_undefined_on_a_pole_sphere():
    """The denominator's h^s = (q + 0.25)² + 0.1 vanishes at −0.25 + √0.1·i."""
    with pytest.raises(UndefinedAtZeroPole):
        spherical_conjugate(SELFTEST_RATIONAL, Quaternion(-0.25, math.sqrt(0.1), 0, 0))


# ---------------------------------------------------------------------------
# Rational closure and 2x2 transforms
# ---------------------------------------------------------------------------


def test_rational_evaluates_as_left_quotient():
    num = LeftPoly([[1, 0, 0, 0], [0, 1, 0, 0]])          # 1 + q i
    den = RealPoly([1.0, 0.0, 1.0])                        # q² + 1
    f = SemiregularRational(num, den)
    q = Quaternion(0.5, 0.25, -0.1, 0.0)
    # value = den_s(q)⁻¹ · (num * den^c)(q), with the slice-preserving
    # denominator acting from the left
    eff = star_mul(num, den.conjugate())
    dens = den.symmetrize()
    want = dens(q).inverse() * eff(q)
    got = f(q)
    assert (got - want).norm() <= 1e-10 * (1 + abs(want)), f"{got} ≠ {want}"


def test_rational_pole_sphere_raises_in_call_and_is_masked_in_stems():
    f = SemiregularRational(RealPoly([1.0]), RealPoly([1.0, 0.0, 1.0]))   # 1/(q² + 1)
    rows = np.array([[0, 0, 1, 0], [0, 0.6, 0.8, 0], [0, 0, 1.001, 0]], dtype=float)
    for row in rows[:2]:
        with pytest.raises(EvalAtPole):
            f(Quaternion.from_array(row))
    assert (f(Quaternion.from_array(rows[2])) - Quaternion(1.0 / (1.0 - 1.001**2))).norm() <= 1e-9
    assert f.stems(rows).ok.tolist() == [False, False, True]


@pytest.mark.parametrize("den", [[0.0, 1.0], [[0, 0, 0, 0], [1, 0.5, 0, 0]]],
                         ids=["real", "quaternion"])
def test_a_pole_at_the_origin_raises_in_call_and_is_masked_in_stems(den):
    """At q = 0 with den_s(0) = 0 the pole tolerance is 0 itself, and |den_s| = 0 meets it."""
    f = SemiregularRational(RealPoly([1.0]), LeftPoly(den))
    with pytest.raises(EvalAtPole):
        f(Quaternion())
    assert f.stems(np.array([[0, 0, 0, 0], [0.5, 0, 0.5, 0]], dtype=float)).ok.tolist() == [False, True]


@pytest.mark.parametrize("num, den, k", [
    (RealPoly([0.3, -0.7, 1.0]), RealPoly([0.5, 0.2, 1.0]), 1010),
    (LeftPoly([[0.5, 0.1, 0, 0], [1, 0.3, -0.2, 0.4], [0.2, 0, 0, 1]]),
     LeftPoly([[0.3, 0, 0.4, 0], [1, 0, 0, 0]]), 1000),
], ids=["slice-preserving", "quaternion"])
def test_rational_stems_near_the_float_range_are_the_scaled_stems_bit_for_bit(num, den, k):
    """Where the den_s stem times the numerator stems of 2^k·num would overflow
    but the quotient fits, the stems are those of num scaled by 2^k, as
    everywhere else: the reciprocal of den_s is formed first, so no product
    outgrows the quotient."""
    pts = np.concatenate([sphere_points(r, 3, 256) for r in (0.5, 40.0)])
    big = SemiregularRational(LeftPoly(np.ldexp(num.coeffs, k)), den).stems(pts)
    unit = SemiregularRational(num, den).stems(pts)
    assert unit.ok.all() and np.array_equal(big.ok, unit.ok)
    assert _same_bits(big.P, np.ldexp(unit.P, k)) and _same_bits(big.Q, np.ldexp(unit.Q, k))


def test_rational_shift_and_origin_order():
    f = as_rational(RealPoly([1.0, 0.0, 1.0]))
    g = f - Quaternion(1, 0, 0, 0)                         # q² + 1 − 1 = q²
    assert g.origin_order() == 2


@given(st.one_of(real_den_rationals(), quat_den_rationals()), quats(), quats())
@settings(max_examples=150, deadline=None)
def test_rational_minus_a_constant_keeps_its_denominator(f, a, q):
    """f − a = (g − a*h) * h^{-*}: h is kept, and f − a takes the values f(q) − a."""
    g = f - a
    want = SemiregularRational(f.num - f.den.scale_left(a), f.den)
    assert g.den is f.den
    for name in ("num", "num_eff", "den_s"):
        assert getattr(g, name).coeffs.tobytes() == getattr(want, name).coeffs.tobytes(), name
    # away from the poles, to the rounding of the two numerators over |h^s(q)|
    # and, for a subnormal a, to the spacing of subnormals
    hs = abs(npoly.polyval(complex(q.w, q.abs_im()), f.den_s.real_coeffs))
    assume(hs > 1e-100 and hs >= 1e-3 * npoly.polyval(abs(q), np.abs(f.den_s.real_coeffs)))
    sums = sum(qnorm(h.num_eff.coeffs) @ abs(q) ** np.arange(h.num_eff.coeffs.shape[0])
               for h in (f, g))
    assert abs(g(q) - (f(q) - a)) <= 1e-10 * sums / hs + 1e-12 * abs(a) + 1e-300


def test_star_reciprocal_swaps_zero_and_pole_orders():
    f = as_rational(RealPoly([1.0, 0.0, 1.0]))
    rec = f.star_reciprocal()
    from quatnev.divisor import total_order_divisor

    d = total_order_divisor(rec)
    spheres = {(sphere.re, sphere.im): ordt for sphere, ordt in d.entries}
    assert spheres == {(0.0, 1.0): -2}, f"reciprocal divisor wrong: {spheres}"


def test_gl2h_dieudonne_and_compose():
    t = GL2H(ONE, Quaternion(0, 1, 0, 0), Quaternion(0, 0, 0, 0), ONE)
    ident = GL2H(ONE, Quaternion(), Quaternion(), ONE)
    f = LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]])
    composed = linear_fractional(t, linear_fractional(ident, f))
    direct = linear_fractional(t, f)
    q = Quaternion(0.3, 0.2, 0.1, 0.0)
    assert (composed(q) - direct(q)).norm() <= 1e-12 * (1.0 + abs(direct(q)))
    assert ident.dieudonne() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateTransform):
        GL2H(ONE, ONE, ONE, ONE).require_invertible()


@pytest.mark.parametrize("s", [1e-160, 1.0, 1e160])
def test_a_singular_transform_is_refused_at_every_scale(s):
    e = Quaternion(s)
    with pytest.raises(DegenerateTransform):
        GL2H(e, e, e, e).require_invertible()


@pytest.mark.parametrize("s", [1.0, 1e140, 1e-140, 1e160, 1e-160, 1e-170])
def test_a_scalar_transform_is_invertible_at_every_scale(s):
    GL2H(Quaternion(s), Quaternion(), Quaternion(), Quaternion(s)).require_invertible()


def test_the_zero_transform_is_refused():
    zero = Quaternion()
    with pytest.raises(DegenerateTransform):
        GL2H(zero, zero, zero, zero).require_invertible()


def test_linear_fractional_with_zero_c_is_affine():
    t = GL2H(Quaternion(2, 0, 0, 0), Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0), ONE)
    f = RealPoly([0.0, 1.0])                               # f(q) = q
    phi = linear_fractional(t, f)
    q = Quaternion(0.3, 0.2, 0.1, 0.0)
    want = Quaternion(2, 0, 0, 0) * q + Quaternion(1, 0, 0, 0)
    assert (phi(q) - want).norm() <= 1e-10, f"(2f+1)(q) = {phi(q)} ≠ {want}"


def test_json_roundtrips():
    """to_json reads back through the constructors, as the CLI reads a config."""
    f = LeftPoly([[1, 2, 0, 0], [0, 0, 1, 0.5]])
    assert LeftPoly(f.to_json()).equals(f, 0.0)
    r = as_rational(f)
    blob = r.to_json()
    rt = SemiregularRational(LeftPoly(blob["num"]), LeftPoly(blob["den"]))
    assert rt.num.equals(r.num, 0.0) and rt.den.equals(r.den, 0.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: LeftPoly([[1, 2, 3]]), ValueError, "quadruples"),
    (lambda: spherical_derivative(RealPoly([0.0, 1.0]), Quaternion(0.5, 0, 0, 0)),
     RealPointDegenerate, "nonreal point"),
    (lambda: as_rational(RealPoly([])).star_reciprocal(), ZeroFunctionReciprocal,
     "zero function"),
    # c ↦ (1·c + 0)*(1·c − c)^{-*}: the transform is invertible, its image of c is not
    (lambda: linear_fractional(GL2H(ONE, Quaternion(), ONE, -Quaternion(0.5, 0.2, 0, 0)),
                               LeftPoly([[0.5, 0.2, 0, 0]])),
     DegenerateTransform, "collapsed"),
], ids=["three-component-row", "derivative-at-real-point", "reciprocal-of-zero",
        "collapsed-denominator"])
def test_bad_star_poly_inputs_raise_their_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
