"""Left polynomials and semiregular rationals under the *-product.

The function model: left polynomials f(q) = Σ_k q^k a_k (quaternion
coefficients on the right of the powers), their *-products, conjugates
f^c, symmetrizations f^s, the spherical derivative, the spherical
conjugate point map S_f, and linear fractional transforms; plus
semiregular rationals f = g * h^{-*}.

Batch evaluation runs through *stems*: f(u + Iv) = P + I Q, where each
real component of P + iQ is the matching component polynomial of f at the
complex point u + iv (one table of complex powers for quaternion
coefficients).  A slice-preserving f has real P, Q, so its stem is the one
complex number w = f(u + iv) = P + iQ, formed by an in-place complex
Horner pass, and log|f| is log|w|, the complex modulus.  Every derived
quantity (the value at q̄, the value composed with S_{f−a}, norms of
slice-preserving functions) is read off the same stems, which is what
makes reflection and spherical-conjugation identities exact at machine
level instead of merely approximate.  A StemEval forms each of them only
when read, and once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quat_core import (
    Quaternion,
    _coerce,
    _read_only,
    qconj,
    qdot,
    qmul,
    qnorm,
    slice_points,
)

__all__ = [
    "LeftPoly",
    "RealPoly",
    "SemiregularRational",
    "GL2H",
    "StemEval",
    "EvalAtPole",
    "RealPointDegenerate",
    "UndefinedAtZeroPole",
    "DegenerateTransform",
    "ZeroFunctionReciprocal",
    "star_mul",
    "star_power",
    "star_eval_identity_check",
    "spherical_derivative",
    "spherical_conjugate",
    "corollary_decomposition_check",
    "linear_fractional",
    "as_rational",
]


class EvalAtPole(ArithmeticError):
    """Evaluation point is numerically on a pole sphere (|den_s(q)| at most pole_tol)."""


class RealPointDegenerate(ValueError):
    """Spherical derivative requested on the real axis, where Im(q)^{-1} is undefined."""


class UndefinedAtZeroPole(ArithmeticError):
    """Spherical conjugate requested at a zero or pole of f^s."""


class DegenerateTransform(ValueError):
    """GL(2, H) matrix with (numerically) vanishing Dieudonné determinant."""


class ZeroFunctionReciprocal(ZeroDivisionError):
    """*-reciprocal of the identically-zero function."""


ZERO_DEGREE = -1  # sentinel degree of the identically-zero polynomial

# |p(q)| below this fraction of Σ|c_k||q|^k counts as zero: the pole
# tolerance pole_tol of a denominator, and the guard near_zero_log of log|f|
NEAR_ZERO = 1e-12


# ---------------------------------------------------------------------------
# stem power helpers
# ---------------------------------------------------------------------------


def _complex_powers(u: np.ndarray, v: np.ndarray, degree: int):
    """c_n, s_n with (u + iv)^n = c_n + i s_n, as (degree+1, n_pts) arrays."""
    npts = u.shape[0]
    c = np.empty((degree + 1, npts))
    s = np.empty((degree + 1, npts))
    c[0] = 1.0
    s[0] = 0.0
    for k in range(degree):
        c[k + 1] = c[k] * u - s[k] * v
        s[k + 1] = c[k] * v + s[k] * u
    return c, s


class StemEval:
    """Stem data of one function on one batch of points.

    P, Q are (n, 4) quaternion arrays with f(u ± Iv) = P ± I·Q, where u, v
    and the unit imaginaries I are those of ``pts``, a SlicePoints batch
    that forms each once for every evaluation on it.  P, Q, value() and the
    twisted values have (4, n) storage and an (n, 4) view, like the points,
    so each component is a contiguous row.  ``ok`` masks points where f is
    defined (it excludes rational pole hits).  For slice-preserving f,
    ``w`` is the complex array with f(u + Iv) = A + I·B for w = A + iB, and
    P, Q are formed from views of it only when read.

    The twist reads the stems of f at a turned unit.  For g = f − a,
    S_{f−a}(q) = u + J·v with J = −Q·T·Q⁻¹ and T = g(q)⁻¹·I·g(q), so
    f(S_{f−a}(q)) = P + J·Q = P − Q·T.  T is a unit imaginary at every
    scale of g, formed in its Rodrigues form (see twisted).  At a = 0 the
    log-modulus reads the stem A + iB of f^s = f * f^c instead, with
    A = |P|² − |Q|² and B = 2⟨P, Q⟩.  The value and log|f| are formed once
    and kept read-only; log-moduli do not depend on the scale of f (see
    _rescaled).
    """

    __slots__ = ("pts", "ok", "w", "_P", "_Q", "_value", "_log_abs")

    def __init__(self, pts, ok, P=None, Q=None, w=None):
        self.pts = pts
        self.ok = ok
        self.w = w  # complex f(u + iv) for slice-preserving f
        self._P, self._Q = P, Q
        self._value = self._log_abs = None

    @property
    def P(self) -> np.ndarray:
        if self._P is None:
            self._P = _real_part_quat(self.w.real)
        return self._P

    @property
    def Q(self) -> np.ndarray:
        if self._Q is None:
            self._Q = _real_part_quat(self.w.imag)
        return self._Q

    def minus(self, a: Quaternion) -> "StemEval":
        """The stems of f − a for a constant a: P − a and the same Q, ok and points (w − a for real a)."""
        if self.w is not None and a.is_real():
            return StemEval(self.pts, self.ok, w=self.w - a.re)
        return StemEval(self.pts, self.ok, _shifted(self.P, a), self.Q)

    def value(self) -> np.ndarray:
        """f(q) as a read-only (n, 4) array."""
        if self._value is None:
            value = qmul(self.pts.I, self.Q)
            value += self.P  # P + I·Q: the same bits, IEEE addition commutes
            (self._value,) = _read_only(value)
        return self._value

    def value_conj_point(self) -> np.ndarray:
        """f(q̄) as an (n, 4) array (same stems, I → −I)."""
        value = qmul(self.pts.I, self.Q)
        return np.subtract(self.P, value, out=value)

    def log_abs(self) -> np.ndarray:
        """log|f(q)|, read-only (−inf where f vanishes; mask with ok).

        For slice-preserving f it is log|w|, the complex modulus of the
        stem, and log_abs_conj_point and log_abs_twisted return this same
        array.
        """
        if self._log_abs is None:
            la = _log_norm(self.value()) if self.w is None else _log_modulus(self.w)
            (self._log_abs,) = _read_only(la)
        return self._log_abs

    def log_abs_conj_point(self) -> np.ndarray:
        """log|f(q̄)|; the same array as log_abs() for slice-preserving f.

        The package reads it nowhere.  It stays while the benchmark's tracer
        (perfbench/tracer.py) wraps this method and tests/test_bench_hooks.py
        pins that target, and goes with the tracer's change (ROADMAP item 5a).
        """
        if self.w is not None:
            return self.log_abs()
        return _log_norm(self.value_conj_point())

    def twisted(self, shift):
        """(f(S_{f−a}(q)), ok) for the constant a = shift (a Quaternion, or None for 0).

        The value is P − Q·T with T = g⁻¹·I·g for g = f − a = s + x (s real),
        formed as ((s² − |x|²)·I + 2⟨x, I⟩·x − 2s·(x × I)) / |g|² on g scaled
        as in _rescaled, so it neither cancels nor overflows at any scale of
        f or a.  It is continuous where q is real or the spherical
        derivative Q vanishes, and equals f(q̄) there.  Rows where g(q) = 0,
        on which S_{f−a} is undefined, hold P and are masked out.
        """
        g = self.value() if shift is None else _shifted(self.value(), shift)
        g2 = qdot(g, g)
        (g,), e = _rescaled(g2, g)
        if e is not None:
            g2 = qdot(g, g)
        s, x, I = g.T[0], g.T[1:], self.pts.I.T[1:]
        inv = 1.0 / np.where(g2 > 0.0, g2, 1.0)
        a = (2.0 * s * s - g2) * inv  # (s² − |x|²) / |g|²
        b = 2.0 * qdot(x.T, I.T) * inv
        c = -2.0 * s * inv
        turn = np.empty((4, len(s)))
        turn[0] = 0.0
        for k in range(3):
            k1, k2 = (k + 1) % 3, (k + 2) % 3
            turn[k + 1] = a * I[k] + b * x[k] + c * (x[k1] * I[k2] - x[k2] * I[k1])
        val = qmul(self.Q, turn.T)
        return np.subtract(self.P, val, out=val), self.ok & (g2 > 0.0)

    def log_abs_twisted(self, shift):
        """log|f(S_{f−a}(q))| and the mask of twisted().

        For slice-preserving f, |f| is constant on each sphere S_q and this
        is log_abs().  At a = 0 it is log|A + iB| − log|f(q)|, the complex
        modulus of the f^s stem, with no quaternion product, and −inf where
        f(q) = 0.
        """
        if self.w is not None:
            # twisted() masks out rows where g(q) = 0, which needs Re f(q) = Re a
            hit = np.any(self.w.real == (0.0 if shift is None else shift.re))
            return self.log_abs(), self.twisted(shift)[1] if hit else self.ok.copy()
        if shift is not None:
            val, ok = self.twisted(shift)
            return _log_norm(val), ok
        P, Q = self.P, self.Q
        pp, qq = qdot(P, P), qdot(Q, Q)
        with np.errstate(over="ignore"):  # _rescaled handles an infinite norm
            sq = pp + qq
        (P, Q), e = _rescaled(sq, P, Q)
        if e is not None:
            pp, qq = qdot(P, P), qdot(Q, Q)
        fs = (pp - qq).astype(complex)
        fs.imag = 2.0 * qdot(P, Q)
        log_s = _log_modulus(fs) if e is None else _log_modulus(fs) + (2.0 * _LN2) * e
        la = self.log_abs()
        nonzero = la > -np.inf
        out = np.full(la.shape, -np.inf)
        np.subtract(log_s, la, out=out, where=nonzero)
        return out, self.ok & nonzero


_LN2 = math.log(2.0)


def _shifted(x: np.ndarray, a: Quaternion) -> np.ndarray:
    """x − a for an (n, 4) array over (4, n) storage, in the same layout."""
    return (x.T - a.to_array()[:, None]).T


def _log_modulus(w: np.ndarray) -> np.ndarray:
    """log|w| of a complex array, −inf where w = 0; |w| does not overflow or underflow."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(w))


def _rescaled(sq: np.ndarray, *arrays):
    """The (n, 4) arrays with each point scaled by 2^{−e}, and e.

    e is the binary exponent of the point's largest entry where the squared
    norm sq is zero, subnormal, infinite or NaN, and 0 elsewhere.  When no
    row is, the arrays come back unchanged with e = None.
    """
    bad = ~((sq >= np.finfo(float).tiny) & (sq < np.inf))
    if not bad.any():
        return arrays, None
    e = np.where(bad, np.frexp(np.max([np.abs(x.T).max(axis=0) for x in arrays], axis=0))[1], 0)
    return tuple(np.ldexp(x.T, -e).T for x in arrays), e


def _log_norm(x: np.ndarray) -> np.ndarray:
    """log|x| of each point of an (n, 4) array at any scale.

    On points whose squared norm is normal it is log(qnorm(x)) bit for bit.
    """
    sq = qdot(x, x)
    (xs,), e = _rescaled(sq, x)
    with np.errstate(divide="ignore"):
        return np.log(np.sqrt(sq)) if e is None else np.log(np.sqrt(qdot(xs, xs))) + _LN2 * e


def _real_part_quat(a: np.ndarray) -> np.ndarray:
    """The (n, 4) array, over (4, n) storage, with real parts a and zero imaginary parts."""
    out = np.zeros((4, a.shape[0]))
    out[0] = a
    return out.T


# ---------------------------------------------------------------------------
# LeftPoly
# ---------------------------------------------------------------------------


class LeftPoly:
    """Left polynomial f(q) = Σ_k q^k a_k with quaternion coefficients a_k.

    Coefficients are stored lowest-degree first as an (n, 4) float array;
    trailing zero coefficients are trimmed so the representation is
    canonical.  The zero polynomial has empty coefficients and degree −1.
    The constructor alone decides the class: coefficients whose imaginary
    components are all zero, the zero polynomial's included, make a
    RealPoly, so a LeftPoly always has a nonreal coefficient.
    """

    __slots__ = ("coeffs",)
    is_real = False

    def __new__(cls, coeffs):
        arr = _coeff_array(coeffs)
        nz = (arr != 0.0).any(axis=1).nonzero()[0]
        arr = arr[: nz[-1] + 1] if nz.size else np.empty((0, 4))
        real = not arr[:, 1:].any()
        if cls is RealPoly and not real:
            raise ValueError("RealPoly requires real coefficients")
        self = object.__new__(RealPoly if real else LeftPoly)
        arr.setflags(write=False)
        self.coeffs = arr
        if real:
            self.real_coeffs = arr[:, 0]
        return self

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def constant(a) -> "LeftPoly":
        return LeftPoly(_coerce(a).to_array()[None])

    @staticmethod
    def identity() -> "LeftPoly":
        """The polynomial f(q) = q."""
        return LeftPoly([[0, 0, 0, 0], [1, 0, 0, 0]])

    def to_json(self):
        return [list(map(float, row)) for row in self.coeffs]

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; ZERO_DEGREE (= −1) for the zero polynomial."""
        return self.coeffs.shape[0] - 1 if self.coeffs.shape[0] else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def coefficient(self, k: int) -> Quaternion:
        if 0 <= k < self.coeffs.shape[0]:
            return Quaternion.from_array(self.coeffs[k])
        return Quaternion()

    def coeff_scale(self) -> float:
        """max |a_k|, a natural scale for relative tolerances (0 for the zero poly).

        The coefficients are scaled by a power of two first, so |a_k| neither
        overflows nor underflows where |a_k|² would.
        """
        if self.is_zero:
            return 0.0
        e = math.frexp(np.abs(self.coeffs).max())[1]
        return math.ldexp(float(qnorm(np.ldexp(self.coeffs, -e)).max()), e)

    def equals(self, other: "LeftPoly", tol: float = 0.0) -> bool:
        a, b = self.coeffs, other.coeffs
        n = max(a.shape[0], b.shape[0])
        pa = np.zeros((n, 4))
        pb = np.zeros((n, 4))
        pa[: a.shape[0]] = a
        pb[: b.shape[0]] = b
        return bool(np.all(qnorm(pa - pb) <= tol))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree})"

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((n, 4))
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return LeftPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LeftPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        """*-product (coefficient convolution, left factors' coefficients left)."""
        return star_mul(self, _as_poly(other))

    def __rmul__(self, other):
        return star_mul(_as_poly(other), self)

    def scale_left(self, a) -> "LeftPoly":
        """Constant *-multiplication from the left: coefficients a·a_k."""
        return LeftPoly(qmul(_coerce(a).to_array(), self.coeffs))

    def conjugate(self) -> "LeftPoly":
        """f^c: coefficientwise quaternion conjugation."""
        return LeftPoly(qconj(self.coeffs))

    def symmetrize(self) -> "RealPoly":
        """f^s = f * f^c, whose coefficient n is the real Σ_{i+j=n} ⟨a_i, a_j⟩.

        Each dot ((w·w' + x·x') + y·y') + z·z' is the real row of a_i·ā_j
        as qmul sums it, and the dots are shift-added over ascending i as
        star_mul adds its rows, so f^s is real by construction and has the
        bits of the product's real column.  Raises OverflowError if a
        coefficient of f^s does not fit a float.
        """
        if self.is_zero:
            return RealPoly([])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.is_real:
                out = np.convolve(self.real_coeffs, self.real_coeffs)
            else:
                a = self.coeffs
                dots = np.multiply.outer(a[:, 0], a[:, 0])
                for k in (1, 2, 3):
                    dots += np.multiply.outer(a[:, k], a[:, k])
                out = np.zeros(2 * a.shape[0] - 1)
                for i, row in enumerate(dots):
                    out[i : i + a.shape[0]] += row
        if not np.isfinite(out).all():
            raise OverflowError(
                f"f^s overflows: the coefficient scale {self.coeff_scale():.3e} "
                "of f squared does not fit a float"
            )
        return RealPoly(out)

    def series_head(self):
        """(d0, d1, 2·d2) as Quaternions: value, first and second derivative at 0 of q^{−m₀}·f."""
        m = self.origin_order()
        return (
            self.coefficient(m),
            self.coefficient(m + 1),
            self.coefficient(m + 2) * 2.0,
        )

    def origin_order(self) -> int:
        """Multiplicity of the zero at q = 0 (0 if f(0) ≠ 0; 0 for f ≡ 0 by convention)."""
        if self.is_zero:
            return 0
        return int((self.coeffs != 0.0).any(axis=1).nonzero()[0][0])

    # -- evaluation -------------------------------------------------------------

    def __call__(self, q) -> Quaternion:
        """Horner evaluation with powers on the left: a_0 + q(a_1 + q(a_2 + …))."""
        q = _coerce(q)
        if self.is_zero:
            return Quaternion()
        acc = Quaternion.from_array(self.coeffs[-1])
        for k in range(self.coeffs.shape[0] - 2, -1, -1):
            acc = q * acc + Quaternion.from_array(self.coeffs[k])
        return acc

    def stems(self, pts: np.ndarray) -> StemEval:
        """Stem evaluation on an (n, 4) batch of points.

        For a polynomial ok is all-True (there is no denominator).
        """
        pts = slice_points(pts)
        u, v = pts.uv
        c, s = _complex_powers(u, v, self.degree)
        P, Q = self.coeffs.T @ c, self.coeffs.T @ s
        return StemEval(pts, np.ones(u.shape[0], dtype=bool), P.T, Q.T)

    def near_zero_log(self, r: float) -> float:
        """log of the near-zero guard NEAR_ZERO·Σ_k |a_k| r^k of log|f| on ∂B_r.

        The guard scales with f, so it rejects the same points of c·f for
        every c > 0; f ≡ 0 gets the finite guard log NEAR_ZERO, so its
        samples are all rejected.
        """
        return math.log(NEAR_ZERO) + (0.0 if self.is_zero else _log_abs_sum(self, r))


def _log_abs_sum(p, r: float) -> float:
    """log Σ_k |a_k| r^k of a polynomial p, summed in log space (−inf for p ≡ 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(np.hypot.reduce(p.coeffs, axis=1))
        terms[1:] += np.arange(1, terms.size) * np.log(r)
    return float(np.logaddexp.reduce(terms))


def _coeff_array(coeffs) -> np.ndarray:
    """The coefficients as an (n, 4) float array; scalars are real parts.

    Raises ValueError on a non-finite entry, whatever the input's form.
    """
    if isinstance(coeffs, LeftPoly):
        return coeffs.coeffs
    if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "biuf":
        arr = coeffs.astype(float)
    else:
        arr = np.asarray(
            [(_coerce(c).to_array() if not np.shape(c) else np.asarray(c, dtype=float)) for c in coeffs],
            dtype=float,
        )
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite")
    if arr.size == 0:
        return np.empty((0, 4))
    if arr.ndim == 1:
        quad = np.zeros((arr.shape[0], 4))
        quad[:, 0] = arr
        return quad
    if arr.shape[1] != 4:
        raise ValueError("coefficients must be scalars or [w,x,y,z] quadruples")
    return arr


# the operands that count as constants in polynomial and rational arithmetic
_CONSTANTS = (int, float, complex, Quaternion)


def _as_poly(v) -> "LeftPoly":
    if isinstance(v, LeftPoly):
        return v
    if isinstance(v, _CONSTANTS):
        return LeftPoly.constant(v)
    return LeftPoly(v)


# ---------------------------------------------------------------------------
# RealPoly
# ---------------------------------------------------------------------------


class RealPoly(LeftPoly):
    """Left polynomial with real coefficients — the slice-preserving class.

    Values lie in the slice of the argument: f(u + Iv) = A + I B with real
    A, B, so f(q̄) = conj(f(q)) and |f| is constant on every sphere S_q;
    the *-product with any slice function coincides with the pointwise
    product.  Stem evaluation carries w = A + iB as one complex array,
    making sphere-symmetric quantities exact at machine level.

    LeftPoly(...) returns a RealPoly whenever its coefficients are real;
    RealPoly(...) takes the same scalars or rows and raises ValueError on
    a row with a nonzero imaginary component.  real_coeffs is the
    read-only real column of coeffs.
    """

    __slots__ = ("real_coeffs",)
    is_real = True

    def real_stems(self, z: np.ndarray) -> np.ndarray:
        """The complex stem w = A + iB with f(u + Iv) = A + I B, by Horner at z = u + iv."""
        if self.is_zero:
            return np.zeros(z.shape, dtype=complex)
        c = self.real_coeffs
        # polyval's ufunc sequence, in place: bit for bit its result, no temporaries
        w = np.full(z.shape, complex(c[-1]))
        for ck in c[-2::-1]:
            np.multiply(w, z, out=w)
            w += ck
        return w

    def stems(self, pts: np.ndarray) -> StemEval:
        """Stem evaluation that reads only z = u + iv of the points' frame."""
        pts = slice_points(pts)
        w = self.real_stems(pts.z)
        return StemEval(pts, np.ones(w.shape[0], dtype=bool), w=w)

    def conjugate(self) -> "RealPoly":
        return self


# ---------------------------------------------------------------------------
# *-product and pointwise identities
# ---------------------------------------------------------------------------


def star_mul(f: LeftPoly, g: LeftPoly) -> LeftPoly:
    """*-product: coefficient convolution c_n = Σ_{i+j=n} a_i·b_j (a on the left).

    Raises OverflowError if a coefficient of the product does not fit a float.
    """
    if f.is_zero or g.is_zero:
        return RealPoly([])
    if isinstance(f, RealPoly) and isinstance(g, RealPoly):
        out = np.convolve(f.real_coeffs, g.real_coeffs)
    else:
        a, b = f.coeffs, g.coeffs
        prods = qmul(a[None], b[:, None])  # prods[i, j] = a_i·b_j
        out = np.zeros((a.shape[0] + b.shape[0] - 1, 4))
        for i in range(a.shape[0]):
            out[i : i + b.shape[0]] += prods[i]
    try:
        return LeftPoly(out)
    except ValueError:
        raise OverflowError("f*g overflows: a coefficient does not fit a float") from None


def star_power(f, n: int):
    """n-fold *-power f^{n*} of a polynomial or semiregular rational."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = f
    for _ in range(n - 1):
        out = out * f
    return out


def star_eval_identity_check(f: LeftPoly, g: LeftPoly, q) -> float:
    """Residual of (f*g)(q) = f(q)·g(f(q)^{-1} q f(q)).

    When f(q) = 0 the *-product value must itself vanish, so the residual
    returned is |(f*g)(q)|.
    """
    q = _coerce(q)
    prod_val = star_mul(f, g)(q)
    fq = f(q)
    if fq.norm() == 0.0:
        return prod_val.norm()
    twisted = fq.inverse() * q * fq
    return (prod_val - fq * g(twisted)).norm()


def spherical_derivative(f, q) -> Quaternion:
    """f′_s(q) = ½·Im(q)^{-1}·(f(q) − f(q̄)); undefined on the real axis."""
    q = _coerce(q)
    if q.abs_im() == 0.0:
        raise RealPointDegenerate("spherical derivative needs a nonreal point")
    return q.im.inverse() * (f(q) - f(q.conj())) * 0.5


def spherical_conjugate(f, q) -> Quaternion:
    """The point S_f(q) = f′_s(q)·f(q)^{-1}·q̄·f(q)·f′_s(q)^{-1}.

    The map is undefined on the zero and pole set of f^s: UndefinedAtZeroPole
    is raised where f^s(q) raises EvalAtPole or log|f^s(q)| is below
    f^s.near_zero_log(|q|).  S_f(q) = q̄ where q is real or where
    log|f(q) − f(q̄)| = log(2|Im q|·|f′_s(q)|) is below f.near_zero_log(|q|).
    Both guards scale with f, so c·f has the map of f.
    """
    q = _coerce(q)
    fs = f.symmetrize()
    try:
        fs_abs = fs(q).norm()
    except EvalAtPole:
        raise UndefinedAtZeroPole(f"S_f undefined at {q}: a pole of f^s") from None
    if _below_guard(fs_abs, fs.near_zero_log(q.norm())):
        raise UndefinedAtZeroPole(f"S_f undefined at {q}: |f^s(q)| = {fs_abs:.3e}")
    if q.abs_im() == 0.0:
        return q
    fq = f(q)
    ds = spherical_derivative(f, q)
    if _below_guard(2.0 * q.abs_im() * ds.norm(), f.near_zero_log(q.norm())):
        return q.conj()
    x = ds * fq.inverse()
    return x * q.conj() * x.inverse()


def _below_guard(x: float, log_guard: float) -> bool:
    """x ≥ 0 is zero or has log x below log_guard."""
    return x == 0.0 or math.log(x) < log_guard


def corollary_decomposition_check(f, q) -> float:
    """Residual of log|f^s(q)| = log|f(q)| + log|f(S_f(q))|.

    |f^s(q)| is read through the *-product rule, f^s(q) = f(q)·f^c(f(q)⁻¹qf(q)),
    not from the coefficients of f^s, whose evaluation cancels near a
    repeated zero sphere.
    """
    q = _coerce(q)
    s = spherical_conjugate(f, q)
    fq = f(q)
    fs_abs = fq.norm() * f.conjugate()(fq.inverse() * q * fq).norm()
    return abs(math.log(fs_abs) - math.log(fq.norm()) - math.log(f(s).norm()))


# ---------------------------------------------------------------------------
# SemiregularRational
# ---------------------------------------------------------------------------


class SemiregularRational:
    """Semiregular rational f = g * h^{-*} (left polynomials g, h, h ≢ 0).

    Evaluation uses a real-denominator form f(q) = den_s(q)^{-1}·num_eff(q):
    the slice-preserving factor acts from the left, which is the order
    forced by the stem algebra.  The constructor alone decides the form.
    g and h are first scaled by the power of two that brings the largest
    coefficient component of h into [1, 2), which is exact and keeps
    den_s clear of underflow and overflow.  A real h is its own least real
    denominator, h^{-*} = h⁻¹, so (num_eff, den_s) = (g, h); otherwise
    h^{-*} = (1/h^s)·h^c gives (g*h^c, h^s).  num and den keep g and h as
    given.
    """

    __slots__ = ("num", "den", "num_eff", "den_s")

    def __init__(self, num, den) -> None:
        self.num = _as_poly(num)
        self.den = _as_poly(den)
        if self.den.is_zero:
            raise ZeroDivisionError("denominator polynomial must be nonzero")
        g, h = self._unit_scaled()
        if isinstance(h, RealPoly):
            self.num_eff, self.den_s = g, h
        else:
            self.num_eff, self.den_s = star_mul(g, h.conjugate()), h.symmetrize()

    def _unit_scaled(self):
        """g and h times the power of two that brings the largest coefficient
        component of h into [1, 2)."""
        e = math.frexp(np.abs(self.den.coeffs).max())[1] - 1
        return tuple(LeftPoly(np.ldexp(p.coeffs, -e)) for p in (self.num, self.den))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_real(self) -> bool:
        return self.num.is_real and self.den.is_real

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self) -> str:
        return f"SemiregularRational(num_degree={self.num.degree}, den_degree={self.den.degree})"

    # -- algebra -------------------------------------------------------------

    def conjugate(self) -> "SemiregularRational":
        """f^c = num_eff^c·(1/den_s); satisfies (f^c)^s = f^s."""
        return SemiregularRational(self.num_eff.conjugate(), self.den_s)

    def symmetrize(self) -> "SemiregularRational":
        """f^s = g^s * (h^s)^{-*} as a ratio of real polynomials, squared from
        the g and h that the constructor scaled, so a scale of f cancels first."""
        g, h = self._unit_scaled()
        return SemiregularRational(g.symmetrize(), h.symmetrize())

    def star_reciprocal(self) -> "SemiregularRational":
        """f^{-*} = h * g^{-*}: swap numerator and denominator."""
        if self.num.is_zero:
            raise ZeroFunctionReciprocal("reciprocal of the zero function")
        return SemiregularRational(self.den, self.num)

    def __add__(self, other):
        """f + other; f ± a = (g ± a*h) * h^{-*} keeps h for a constant a."""
        if isinstance(other, _CONSTANTS):
            return SemiregularRational(self.num + self.den.scale_left(other), self.den)
        other = as_rational(other)
        num = star_mul(self.num_eff, other.den_s) + star_mul(other.num_eff, self.den_s)
        return SemiregularRational(num, self.den_s * other.den_s)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SemiregularRational(-self.num, self.den)

    def __mul__(self, other):
        """*-product; the real denominators den_s commute past everything."""
        other = as_rational(other)
        return SemiregularRational(
            star_mul(self.num_eff, other.num_eff), self.den_s * other.den_s
        )

    # -- evaluation ------------------------------------------------------------

    def pole_tol(self, q_norm):
        """EvalAtPole threshold NEAR_ZERO·Σ|c_i|·|q|^i over the coefficients c_i of den_s.

        The bound is relative to the scale of den_s at |q|, so c·den_s masks
        the same points for every c > 0; q_norm is a float or an array of |q|.
        """
        return NEAR_ZERO * npoly.polyval(q_norm, np.abs(self.den_s.real_coeffs))

    def near_zero_log(self, r: float) -> float:
        """log of the near-zero guard of log|f| on ∂B_r: LeftPoly.near_zero_log
        with the sum Σ_k |a_k| r^k of num_eff over that of den_s."""
        if self.is_zero:
            return math.log(NEAR_ZERO)
        return math.log(NEAR_ZERO) + _log_abs_sum(self.num_eff, r) - _log_abs_sum(self.den_s, r)

    def __call__(self, q) -> Quaternion:
        """den_s(q)⁻¹·num_eff(q); EvalAtPole where |den_s(q)| is at most pole_tol(|q|)."""
        q = _coerce(q)
        hs = self.den_s(q)
        if hs.norm() <= self.pole_tol(q.norm()):
            raise EvalAtPole(f"|den_s({q})| = {hs.norm():.3e} below pole tolerance")
        return hs.inverse() * self.num_eff(q)

    def stems(self, pts: np.ndarray) -> StemEval:
        """Stem evaluation of the quotient.

        The reciprocal of the denominator stem A + iB of den_s comes first, as
        in __call__: ra + i·rb = (A − iB)/(A²+B²).  With the numerator stems
        (P_n, Q_n), P = ra·P_n + rb·Q_n and Q = ra·Q_n − rb·P_n; for a
        slice-preserving quotient this is the complex w_n·(ra + i·rb).  As
        |ra| and |rb| are at most 1/|den_s|, no product exceeds the quotient.
        Points with |den_s| at most pole_tol(|q|), the rule __call__ raises
        EvalAtPole by, are masked out.
        """
        pts = slice_points(pts)
        base = self.num_eff.stems(pts)
        hs = self.den_s.real_stems(pts.z)
        A, B = hs.real, hs.imag
        mod2 = A * A + B * B
        tol = self.pole_tol(np.abs(pts.z))
        ok = mod2 > tol * tol
        safe = np.where(ok, mod2, 1.0)
        # in real arithmetic for both kinds: NumPy's complex product may fuse;
        # as (k, n) rows, k = 1 for the slice-preserving stem w and 4 otherwise
        parts = (base.w.real, base.w.imag) if self.is_real else (base.P.T, base.Q.T)
        Pn, Qn = np.atleast_2d(*parts)
        with np.errstate(over="ignore", invalid="ignore"):
            ra, rb = A / safe, B / safe
            P = ra * Pn + rb * Qn
            Q = ra * Qn - rb * Pn
        if self.is_real:
            w = P[0].astype(complex)
            w.imag = Q[0]
            return StemEval(pts, ok, w=w)
        return StemEval(pts, ok, P.T, Q.T)

    # -- series at the origin ---------------------------------------------------

    def origin_order(self) -> int:
        """Total order at q = 0: ord₀(g) − ord₀(h) (zeros positive, poles negative)."""
        if self.num.is_zero:
            return 0
        return self.num.origin_order() - self.den.origin_order()

    def series_head(self):
        """(d0, d1, 2·d2) of the Laurent-deflated series at 0.

        Divides the heads of num_eff and den_s, each of them deflated by
        its exact origin power, as three-term series by the real denominator.
        """
        n0, n1, n2 = (x.to_array() for x in self.num_eff.series_head())
        s0, s1, s2 = (x.w for x in self.den_s.series_head())
        d0 = n0 / s0
        d1 = (n1 - d0 * s1) / s0
        d2 = (n2 - d0 * s2 - 2.0 * d1 * s1) / s0
        return Quaternion.from_array(d0), Quaternion.from_array(d1), Quaternion.from_array(d2)


def as_rational(f) -> SemiregularRational:
    """Promote a polynomial (or constant) to a SemiregularRational."""
    if isinstance(f, SemiregularRational):
        return f
    return SemiregularRational(_as_poly(f), RealPoly([1.0]))


# ---------------------------------------------------------------------------
# Linear fractional transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GL2H:
    """Invertible 2×2 quaternionic matrix [[A, B], [C, D]] acting as
    Φ(q) = (Aq + B)*(Cq + D)^{-*}."""

    A: Quaternion
    B: Quaternion
    C: Quaternion
    D: Quaternion

    def dieudonne(self) -> float:
        """Dieudonné determinant |A|·|D − C·A^{-1}·B| (|B|·|C| when A = 0)."""
        if self.A.norm() == 0.0:
            return self.B.norm() * self.C.norm()
        return self.A.norm() * (self.D - self.C * self.A.inverse() * self.B).norm()

    def require_invertible(self) -> None:
        """Raise DegenerateTransform on the zero matrix, and where the Dieudonné
        determinant is below 1e-12·(largest entry norm)² once the entries are
        scaled by the power of two that brings their largest component to [½, 1)."""
        entries = [x.to_array() for x in (self.A, self.B, self.C, self.D)]
        big = float(np.abs(entries).max())
        if big == 0.0:
            raise DegenerateTransform("the zero matrix is not invertible")
        unit = GL2H(*(Quaternion.from_array(np.ldexp(x, -math.frexp(big)[1])) for x in entries))
        scale = max(x.norm() for x in (unit.A, unit.B, unit.C, unit.D))
        det = unit.dieudonne()
        if det < 1e-12 * scale**2:
            raise DegenerateTransform(f"Dieudonné determinant {det:.3e} ≈ 0 at unit scale")


def linear_fractional(t: GL2H, f) -> SemiregularRational:
    """Φ(f) = (A*f + B)*(C*f + D)^{-*}.

    Writing f = g*h^{-*}, both affine images share the right factor
    h^{-*}, which cancels: Φ(f) = (A*g + B*h)*(C*g + D*h)^{-*}.
    """
    t.require_invertible()
    f = as_rational(f)
    num = f.num.scale_left(t.A) + f.den.scale_left(t.B)
    den = f.num.scale_left(t.C) + f.den.scale_left(t.D)
    if den.is_zero:
        raise DegenerateTransform("transform denominator collapsed to zero")
    return SemiregularRational(num, den)
