"""Nevanlinna value-distribution functions over the quaternions.

Implements the integrated counting function N, the mean proximity
function m (against the canonical Weil weight λ_a), the harmonic
remainder H, the characteristic T, and the verification harness for the
sphere-corrected Jensen formula, the First Main Theorem envelope, and
the algebra of T — all on deterministic Monte-Carlo spherical means.

Targets ``a`` may be passed as a Quaternion (or any scalar/complex value
coercible to one) or as the point at infinity, written ``None``,
``math.inf``, or the string ``"inf"``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .quat_core import Quaternion, SliceComplex, _check_radius, _coerce, qmul
from .star_poly import (
    LeftPoly,
    SemiregularRational,
    as_rational,
    linear_fractional,
    star_power,
)
from .divisor import (
    N_integrated,
    SphereDivisor,
    _refuse_boundary,
    _sphere_ratio,
    angular_term,
    jensen_kernel,
    signed_kernel_sum,
    total_order_divisor,
)
from .sph_integral import IntegratorConfig, SphericalMean, mean_batch, mean_columns

__all__ = [
    "ArbiterReport",
    "CenterIsZeroOrPole",
    "JensenReport",
    "NevanlinnaProfile",
    "admissible_radii",
    "characteristic",
    "characteristic_algebra_suite",
    "counting_arbiter",
    "harmonic_remainder",
    "mpb_defect",
    "n_bound_check",
    "proximity",
    "verify_fmt",
    "verify_jensen",
]

# shared-stream gate for identities that are exact up to rounding
_EQUALITY_TOL = 1e-9
# |best-fit slope in log r| below which an O(1) claim is called consistent
_SLOPE_GATE = 0.01
# admissible radii keep |r − modulus| > clearance·r from divisor spheres
_RADIUS_CLEARANCE = 1e-6
# the sphere orders counting_arbiter compares
_ARBITER_ORDERS = (1, 2)


class CenterIsZeroOrPole(ArithmeticError):
    """The series center q = 0 is a zero or pole; deflate before use."""


def _target(a) -> Quaternion | None:
    """The target ``a`` as a Quaternion, or None for the point at infinity."""
    if a is None:
        return None
    if isinstance(a, str) and a.strip().lower() in ("inf", "infinity"):
        return None
    if isinstance(a, (int, float)) and math.isinf(a):
        return None
    return _coerce(a)


def _lambda_of_head(head, r: float) -> float:
    """Radius-r mean-value defect of log|g^s| at 0 from the series head of g.

    For g with g(0) ≠ 0 the defect is closed-form in the first three
    series coefficients:
    (r²/4)·Re(g(0)⁻¹·g″(0)) − (r²/4)·Re((g(0)⁻¹·g′(0))²),
    which equals −(r²/16)·Δ₄ log|g^s| at 0.  In terms of the real
    series coefficients s₀, s₁, s₂ of g^s, the defect is
    −(r²/8)(s₁² − 2s₀s₂)/s₀², so no conjugation may appear on g′(0):
    with conjugation the two forms disagree whenever Re(g(0))·Re(g′(0))
    and ⟨Im g(0), Im g′(0)⟩ are both nonzero (e.g. g(0) = g′(0) = 1+i
    gives +r²/4 instead of the correct −r²/4).

    A head whose bracket Re(g(0)⁻¹·g″(0)) − Re((g(0)⁻¹·g′(0))²) is
    exactly 0 gives that 0 at every r, even where r²/4 overflows.  Where
    (r²/4)·bracket is not finite, H is formed as (r/2)·((r/2)·bracket),
    which fits where r²/4 alone overflows; an H past the float range that
    way too, or a bracket past it, raises OverflowError.
    """
    g0, g1, g2 = head
    if g0.norm() == 0.0:
        raise CenterIsZeroOrPole("series head vanishes at the center")
    try:
        inv0 = g0.inverse()
        tmp = inv0 * g1
        bracket = (inv0 * g2).re - (tmp * tmp).re
    except (ValueError, OverflowError):  # a quaternion component past the float range
        bracket = math.nan
    if bracket == 0.0:
        return bracket
    H = 0.25 * r * r * bracket
    if not math.isfinite(H):
        H = (0.5 * r) * ((0.5 * r) * bracket)
    if not math.isfinite(H):
        raise OverflowError(f"H(f, a, r) at r = {r!r} is past the float range")
    return H


# ---------------------------------------------------------------------------
# Certified modulus bounds
# ---------------------------------------------------------------------------

# a sample's |q| lies within this relative distance of its radius
_RADIUS_SLACK = 1e-12
# bound on the rounding error of a computed |p(q)|, relative to Σ|a_k||q|^k;
# stem evaluation errs by a few (deg p + 1)·ε of that sum
_EVAL_ERROR = 1e-6
# a certified bound clears its threshold by this much in log space
_LOG_MARGIN = 1e-6
# certified evaluations form magnitudes within e^±_LOG_RANGE only
_LOG_RANGE = math.log(1e300)


def _log_modulus_floor(h, r: float):
    """Certified log lo with lo ≤ |h(q)| as the stems compute it on ∂B_r, or None.

    Only RealPoly and LeftPoly are certified.  Each term has
    |q^k a_k| = |q|^k·|a_k|, so for S = Σ|a_k||q|^k,
    |h(q)| ≥ max_j (2|a_j||q|^j − S) at every q whose |q| is within
    _RADIUS_SLACK·r of r, which covers every sample of ∂B_r.  The bound is
    lowered by the rounding bound _EVAL_ERROR·S of the evaluation; log lo
    is −inf when nothing is left of it.  None for any other h, when r is
    not in [1e-150, 1e150], where the squares that give a sample's slice
    coordinates are normal, and when S, the largest power of |q| or the
    sum Σ|a_k| that bounds the Horner partial sums leaves e^±_LOG_RANGE;
    never raises.
    """
    if not (isinstance(h, LeftPoly) and not h.is_zero
            and r > 0.0 and abs(math.log(r)) <= 0.5 * _LOG_RANGE):
        return None
    with np.errstate(divide="ignore"):
        log_a = np.log(np.hypot.reduce(h.coeffs, axis=1))
    k = np.arange(log_a.size)
    log_r_hi = math.log(r) + math.log1p(_RADIUS_SLACK)
    hi_terms = log_a + k * log_r_hi
    lo_terms = log_a + k * (math.log(r) + math.log1p(-_RADIUS_SLACK))
    top = float(hi_terms.max())
    t_hi = np.exp(hi_terms - top)
    total = float(t_hi.sum())
    lo = float((np.exp(lo_terms - top) - (total - t_hi)).max()) - _EVAL_ERROR * total
    log_s = top + math.log(total)
    extent = max(abs(log_s) + math.log1p(_EVAL_ERROR), k[-1] * log_r_hi,
                 float(np.logaddexp.reduce(log_a)))
    if extent > _LOG_RANGE:
        return None
    return top + math.log(lo) if lo > 0.0 else -math.inf


def _exceeds(h, r: float, log_floor: float) -> bool:
    """True when |h| > e^log_floor at every sample of ∂B_r, certified with margin."""
    log_lo = _log_modulus_floor(h, r)
    return log_lo is not None and log_lo >= log_floor + _LOG_MARGIN


# ---------------------------------------------------------------------------
# Proximity
# ---------------------------------------------------------------------------


def proximity(f, a, r: float, cfg: IntegratorConfig) -> SphericalMean:
    """Mean proximity m(f, a, r): surface mean of λ_a(f) on ∂B_r.

    λ_a is the canonical Weil weight: λ_a(q) = log⁺(1/|q − a|) for finite
    a and λ_∞(q) = log⁺|q|.  It is evaluated in log space on the stem data
    of f − a, so near-singularity samples reject by the near-zero guard of
    f − a.  The estimate is ≥ 0 because the weight is pointwise ≥ 0.
    """
    a = _target(a)
    g = f if a is None else f - a
    return mean_batch([(_proximity_columns(g, a is not None, r), r, g.is_real)], cfg)[0][0]


def _proximity_columns(g, finite: bool, r: float):
    """Column function at radius r of the proximity pass of g to 0 (finite) or ∞, or None.

    g is read as given: f − a for a finite target a, f itself for ∞.  None
    marks a pass certified zero (see mean_batch): for a finite a and a
    polynomial g, _log_modulus_floor proves |g| > max(1, e^thr) for the
    near-zero guard thr of g at every sample of ∂B_r.  Then λ_a is +0.0 at
    every sample and every sample is accepted, so the pass is
    SphericalMean(0.0, 0.0, samples, 0) and needs no draw.  Passes to ∞
    and passes of a rational g stay Monte-Carlo.  The column reads g alone,
    so it reads only the slice coordinates where g.is_real: each request
    of it says so with g.is_real (see mean_batch).
    """
    thr = g.near_zero_log(r) if finite else None
    if finite and _exceeds(g, r, max(thr, 0.0)):
        return None

    def columns(pts):
        se = g.stems(pts)
        la = se.log_abs()
        if not finite:
            return np.maximum(la, 0.0)[:, None], se.ok
        return np.maximum(-la, 0.0)[:, None], se.ok & (la >= thr)

    return columns


# ---------------------------------------------------------------------------
# Harmonic remainder and characteristic
# ---------------------------------------------------------------------------


def harmonic_remainder(f, a, r: float) -> float:
    """Harmonic remainder H(f, a, r), closed form from the series head.

    H(f, a, r) is the radius-r defect by which the spherical mean of
    log|(f−a)^s| misses its value at the center — zero in two complex
    dimensions, generically nonzero in four.  H(f, ∞, r) ≡ 0.

    f − a is not formed: its head is read off the deflated head
    (d₀, d₁, 2d₂) of f and m₀ = ord₀ f, as a constant a moves only the
    value.  For m₀ = 0 it is (d₀ − a, d₁, 2d₂); for m₀ > 0 it is
    (0 − a, c₁, 2c₂) with the undeflated coefficients c_k = d_{k−m₀}
    (0 for k < m₀).

    Raises ValueError unless 0 < r < ∞, and CenterIsZeroOrPole when 0 is a
    zero or pole of f − a: a pole of f, or f(0) = a exactly (f ≡ a
    included); callers that need the deflated variant should divide the
    origin factor out first (verify_jensen and characteristic do this
    automatically).
    """
    _check_radius(r)
    a = _target(a)
    if a is None:
        return 0.0
    m0 = f.origin_order()
    if m0 < 0:
        raise CenterIsZeroOrPole(
            f"0 carries total order {m0} for f − a; deflate before calling"
        )
    if _rational_value_is(f, a):
        raise CenterIsZeroOrPole("f(0) = a, so 0 is a zero of f − a; deflate before calling")
    d0, d1, d2x2 = f.series_head()
    if m0 == 0:
        return _lambda_of_head((d0 - a, d1, d2x2), r)
    c = (Quaternion(),) * m0 + (d0, d1)
    # 0 − a, not −a: the sum f − a forms, down to the sign of a zero
    return _lambda_of_head((Quaternion() - a, c[1], c[2] * 2.0), r)


def _rational_value_is(f, a: Quaternion) -> bool:
    """True when f is a nonzero rational g * h^{-*} with f(0) = a exactly as
    ``f - a`` decides it: the row of g − a·h at ord₀ h vanishes.

    The head value d₀ = (g·h^c)₀/(h^s)₀ may round off a where g − a·h
    has an exact zero at 0, so that row decides.  For a polynomial,
    d₀ − a is that row itself, and _lambda_of_head refuses its zero.
    """
    if not isinstance(f, SemiregularRational) or f.is_zero:
        return False
    k = f.den.origin_order()
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range
        return np.array_equal(f.num.coeffs[k], qmul(a.to_array(), f.den.coeffs[k]))


def characteristic(f, a, r: float, cfg: IntegratorConfig) -> float:
    """Nevanlinna characteristic T(f, a, r).

    T(f, a, r) = N(f, a, r) + ½·m((f−a)^s, 0, r) − H(f, a, r) for finite
    a, and T(f, r) = N(f, ∞, r) + ½·m(f^s, ∞, r) at infinity.  Origin
    zeros/poles of f − a enter N through their log r term and H through
    the deflated series head.
    """
    parts = _radius_free(f, a)
    return parts.at(r, mean_batch([parts.request(r)], cfg)[0][0])[0]


@dataclass(frozen=True)
class _RadiusFree:
    """The pieces of T(f, a, ·) that do not depend on the radius.

    ``g`` is f − a, formed once per (f, a), and f at infinity; m(f, a, r)
    is its proximity.  ``divisor`` and ``side`` give N; ``sym`` is g^s,
    whose proximity to 0 (to ∞ at infinity) is the ½·m term; ``head`` is
    the deflated series head of g behind H (None at infinity, where H ≡ 0).
    Only the ½·m term needs a Monte-Carlo pass.
    """

    divisor: SphereDivisor
    side: str
    g: object
    sym: object
    head: tuple | None

    def counting(self, r: float) -> float:
        return N_integrated(self.divisor, self.side, r)

    def remainder(self, r: float) -> float:
        return 0.0 if self.head is None else _lambda_of_head(self.head, r)

    def request(self, r: float):
        """The (column_fn, r, on_slice) request of the ½·m pass of T at r.

        sym is real, so this pass reads only the slice coordinates.
        """
        return _proximity_columns(self.sym, self.head is not None, r), r, self.sym.is_real

    def proximity_request(self, r: float):
        """The (column_fn, r, on_slice) request of the pass of m(f, a, r)."""
        return _proximity_columns(self.g, self.head is not None, r), r, self.g.is_real

    def at(self, r: float, sym_mean: SphericalMean):
        """(T, Monte-Carlo standard error of T) at r from the mean of request(r)."""
        counting = self.counting(r)
        return (counting + 0.5 * sym_mean.value - self.remainder(r),
                0.5 * sym_mean.std_error)


def _radius_free(f, a) -> _RadiusFree:
    """Divisor, symmetrization and deflated head of f − a, computed once."""
    a = _target(a)
    if a is None:
        return _RadiusFree(total_order_divisor(f), "pole", f, f.symmetrize(), None)
    g = f - a
    try:
        d = total_order_divisor(g)
    except OverflowError as exc:
        raise OverflowError(f"f − a: {exc}") from None
    return _RadiusFree(d, "zero", g, g.symmetrize(), g.series_head())


def _log_pair(se, shift, thr):
    """(log|f|, log|f∘S_{f−a}|, mask) from the stems se of f, for a = shift (None for 0).

    The mask keeps points where f and S_{f−a} are defined and both clear thr.
    """
    la = se.log_abs()
    lat, ok_t = se.log_abs_twisted(shift)
    return la, lat, se.ok & ok_t & (la >= thr) & (lat >= thr)


def _mean_rows(rows, cfg) -> list:
    """mean_batch over rows of requests, its results grouped the same way."""
    means = iter(mean_batch([req for row in rows for req in row], cfg))
    return [tuple(next(means) for _ in row) for row in rows]


# ---------------------------------------------------------------------------
# Jensen verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JensenReport:
    """One closure of the sphere-corrected Jensen formula at radius r.

    residual := assembled right-hand side − lhs, where the right-hand
    side is ½·boundary_f + ½·boundary_fSf + harmonic − divisor_sum, with
    harmonic − divisor_sum summed sphere by sphere (_jensen_closure).  The
    combined boundary mean is estimated as one column, so three_sigma
    gates the residual directly.
    """

    lhs: float
    boundary_f: SphericalMean
    boundary_fSf: SphericalMean
    harmonic: float
    divisor_sum: float
    residual: float
    kernel_convention: str
    three_sigma: float
    radius: float

    @property
    def rhs(self) -> float:
        return self.lhs + self.residual

    @property
    def gate_ok(self) -> bool:
        """True when the residual sits inside its own 3σ envelope."""
        return abs(self.residual) <= self.three_sigma

    def to_json(self):
        return asdict(self)


def _jensen_closure(f, d: SphereDivisor, r: float, cfg: IntegratorConfig):
    """(corrected, factor2) JensenReports of f on ∂B_r and the combined boundary mean.

    d is the total-order divisor of f, which the caller holds.  lhs =
    log|g(0)| for g the origin-deflated f, and H comes from the same
    series head.  The boundary means of log|f|, log|f∘S_f| and their
    ½-combination share one stream and one accepted mask.  The divisor
    side is formed first, so a sphere on ∂B_r is refused before any draw.

    The corrected residual is combined − D − lhs, with the divisor side D
    summed sphere by sphere over (t, ρ, c, d) of _sphere_ratio,
    D = n₀·log r + Σ_inside ord·(log ρ + t²(c² − d²)/4)
                 + Σ_outside ord·ρ²(c² − d²)/4.
    As H = −Σ ord·ρ²(c² − d²)/4 over the whole divisor, D equals
    n₀·log r + Σ_inside ord·J(ζ, r) − H, but no term of size ρ² cancels
    in it.  H and both kernel sums are still reported, and the factor-2
    residual is the corrected one less the offset of the kernel sums.
    """
    origin_term = d.origin_order * math.log(r)
    corrected_sum = signed_kernel_sum(d, r, "corrected") + origin_term
    doubled_sum = signed_kernel_sum(d, r, "doubled") + origin_term
    closure = origin_term
    for sphere, k in d.entries:
        t, rho, cos_re, cos_im = _sphere_ratio(sphere, r)
        quarter = (cos_re - cos_im) * (cos_re + cos_im) / 4.0
        closure += k * (math.log(rho) + t * t * quarter if t < 1.0 else rho * rho * quarter)
    head = f.series_head()
    lhs = math.log(head[0].norm())
    harmonic = _lambda_of_head(head, r)
    thr = f.near_zero_log(r)

    def columns(pts):
        la, lat, ok = _log_pair(f.stems(pts), None, thr)
        return np.stack([la, lat, 0.5 * (la + lat)], axis=1), ok

    # log|f| and log|f∘S_f| of a slice-preserving f read only u + iv
    boundary_f, boundary_fSf, combined = mean_columns(columns, r, cfg, f.is_real)
    # D leaves the mean before lhs, as H − kernel sum did: a D far below an
    # ulp of the mean rounds away there, not into the residual
    residual = combined.value - closure - lhs
    corrected = JensenReport(lhs, boundary_f, boundary_fSf, harmonic, corrected_sum, residual,
                             "corrected_factor1", combined.three_sigma, r)
    factor2 = replace(corrected, divisor_sum=doubled_sum, kernel_convention="doubled_factor2",
                      residual=residual - (doubled_sum - corrected_sum))
    return corrected, factor2, combined


def verify_jensen(f, r: float, cfg: IntegratorConfig) -> tuple:
    """Close the Jensen formula for f on ∂B_r under both kernel conventions.

    Returns (corrected, factor2) JensenReports from one boundary pass: the
    boundary term is the shared-stream combined mean
    ½(log|f| + log|f∘S_f|), and residual = RHS − lhs with a 3σ gate from
    that column (see _jensen_closure).
    """
    return _jensen_closure(f, total_order_divisor(f), r, cfg)[:2]


@dataclass(frozen=True)
class ArbiterReport:
    """Which integer sphere order closes the Jensen formula.

    residuals holds (order, residual) pairs for the orders 1 and 2,
    computed on one shared boundary stream; best_order minimizes |residual|.
    """

    best_order: int
    residuals: tuple
    sphere: SliceComplex
    kernel: float
    lhs: float
    boundary: SphericalMean
    harmonic: float
    three_sigma: float
    radius: float

    def residual(self, order: int) -> float:
        for c, res in self.residuals:
            if c == order:
                return res
        raise KeyError(f"order {order} was not examined")

    def to_json(self):
        return {**asdict(self), "residuals": {str(c): res for c, res in self.residuals}}


def counting_arbiter(f, r: float, cfg: IntegratorConfig) -> ArbiterReport:
    """Decide whether a single zero sphere has total order 1 or 2 by Jensen closure.

    f must be slice-preserving with exactly one zero sphere inside B_r,
    no poles, and no zero at 0.  Order c moves the corrected residual of
    _jensen_closure by (ord − c)·J(ζ, r); the report carries both
    residuals and the minimizer.
    """
    if not f.is_real:
        raise ValueError("the arbiter needs a slice-preserving function")
    d = total_order_divisor(f)
    if d.origin_order != 0:
        raise ValueError("0 must not be a zero of f; deflate first")
    if any(k < 0 for _, k in d.entries):
        raise ValueError("the arbiter needs a pole-free function")
    for s, _k in d.entries:
        _refuse_boundary(s.modulus(), r)
    inside = [(s, k) for s, k in d.entries if s.modulus() < r]
    if len(inside) != 1:
        raise ValueError(f"need exactly one zero sphere inside B_{r}, found {len(inside)}")
    (sphere, order), = inside
    kernel = jensen_kernel(sphere, r)
    corrected, _, combined = _jensen_closure(f, d, r, cfg)
    residuals = tuple((c, corrected.residual + (order - c) * kernel) for c in _ARBITER_ORDERS)
    best = min(residuals, key=lambda pair: abs(pair[1]))[0]
    return ArbiterReport(best, residuals, sphere, kernel, corrected.lhs, combined,
                         corrected.harmonic, combined.three_sigma, r)


# ---------------------------------------------------------------------------
# Mean-proximity balance diagnostics
# ---------------------------------------------------------------------------


def mpb_defect(f, a, radii, cfg: IntegratorConfig) -> list:
    """Surface means of log|f(w)| − log|f(S_{f−a}(w))| on ∂B_r, one per radius.

    All radii share one walk of the stream.  At each radius both columns
    share one stem evaluation and one accepted mask; for slice-preserving
    f the integrand is identically zero sample by sample, so each
    estimate (and its standard error) is exactly 0.  Where f is a
    polynomial and _log_modulus_floor certifies |f| > e^thr for the
    near-zero guard thr at every sample, so that every sample is accepted,
    that radius is the certified-zero request (None, r) and draws nothing.
    At a = ∞ (the CLI default) the twist is S_f, the one at a = 0: the
    defect is log|f| − log|f∘S_f|, the map that fmt-check form 2 pairs with
    ∞ (its m_fSf_inf column).
    """
    shift = _target(a)

    def request(r):
        thr = f.near_zero_log(r)
        if f.is_real and _exceeds(f, r, thr):
            return None, r

        def columns(pts):
            la, lat, ok = _log_pair(f.stems(pts), shift, thr)
            return (la - lat)[:, None], ok

        return columns, r, f.is_real

    return [means[0] for means in mean_batch([request(r) for r in radii], cfg)]


# ---------------------------------------------------------------------------
# Radius grids and summaries
# ---------------------------------------------------------------------------


def admissible_radii(f, r_lo: float, r_hi: float, count: int = 12) -> np.ndarray:
    """Log-spaced radii from r_lo to r_hi, each nudged up off divisor sphere moduli.

    Any grid point within 1e-6·r of a zero/pole sphere modulus of f is
    moved up multiplicatively (factor 1 + 3e-6 per step) until clear, so
    every returned radius is admissible for boundary integration.  The nudge
    only moves up, so a radius can end above r_hi: for q² − 4, whose sphere
    has modulus 2, the grid of count 4 on [0.5, 2] ends at 2.000006.  No
    command calls it; the benchmark's jensen-noncommutative workload draws
    its radius grids from it.
    """
    if not (0.0 < r_lo <= r_hi):
        raise ValueError("need 0 < r_lo <= r_hi")
    if count < 1:
        raise ValueError("count must be at least 1")
    d = total_order_divisor(f)
    moduli = [s.modulus() for s, _k in d.entries]
    grid = np.geomspace(r_lo, r_hi, count)
    out = []
    for r in grid:
        r = float(r)
        while any(abs(r - m) <= _RADIUS_CLEARANCE * r for m in moduli):
            r *= 1.0 + 3.0 * _RADIUS_CLEARANCE
        out.append(r)
    return np.asarray(out)


def _o1_fields(radii, values) -> dict:
    """spread, slope and slope_ok of a bounded-gap claim over a radius grid.

    spread = max − min of the values; slope = best-fit line slope of value
    against log r, 0 on a single radius.  An O(1) claim is numerically
    consistent when |slope| ≤ _SLOPE_GATE.
    """
    res = np.asarray(values, dtype=float)
    spread = float(res.max() - res.min())
    slope = 0.0
    if res.size >= 2:
        slope = float(np.polyfit(np.log(np.asarray(radii, dtype=float)), res, 1)[0])
    return {"spread": spread, "slope": slope, "slope_ok": abs(slope) <= _SLOPE_GATE}


# ---------------------------------------------------------------------------
# First Main Theorem forms
# ---------------------------------------------------------------------------


def _fmt_proximity_columns(f, g, a, r):
    """Shared-stream column function for the form-2 assembly.

    Yields columns [m(f,a,·), m(f∘S_{f−a},a,·), m(f∘S_f,∞,·),
    m(f∘S_{f−a},∞,·)] where g = f − a for the Quaternion a.  The stems of
    g are read off those of f, so each chunk is evaluated once.
    """
    thr_g = g.near_zero_log(r)

    def columns(pts):
        sef = f.stems(pts)
        la_g, lat_g, ok_g = _log_pair(sef.minus(a), None, thr_g)
        lat_f, ok_tf = sef.log_abs_twisted(None)
        la_fsa, ok_ta = sef.log_abs_twisted(a)
        cols = np.stack(
            [
                np.maximum(-la_g, 0.0),
                np.maximum(-lat_g, 0.0),
                np.maximum(lat_f, 0.0),
                np.maximum(la_fsa, 0.0),
            ],
            axis=1,
        )
        return cols, ok_g & ok_tf & ok_ta

    return columns


def verify_fmt(f, a, radii, cfg: IntegratorConfig, form: int = 3):
    """Per-radius residual table for one First Main Theorem form.

    form 3: residual = N(f,a,r) + m(f,a,r) − H(f,a,r) − T(f,r), the
    bounded-gap statement for mean-proximity-balanced functions.
    form 2: residual = [N + ½m(f,a,r) + ½m(f∘S_{f−a},a,r) − H] −
    [T(f,r) − ½m(f∘S_f,∞,r) + ½m(f∘S_{f−a},∞,r)], the exactly
    normalized two-sided assembly.
    form 1: residual = T(f,a,r) − T(f,r) with the envelope
    m(f·f^c, ∞, r); the summary fits residual ≈ coefficient·envelope +
    offset and the coefficient must land in [−1, 1].

    Returns {"form", "a", "rows", "summary"}; rows are JSON-ready dicts.
    """
    if form not in (1, 2, 3):
        raise ValueError("form must be 1, 2, or 3")
    radii = [float(r) for r in radii]
    for r in radii:
        _check_radius(r)
    aq = _target(a)
    if aq is None and form != 3:
        raise ValueError("forms 1 and 2 need a finite target a")
    if form == 1 and len(radii) < 2:
        raise ValueError("form 1 fits its envelope over at least two radii")
    at_inf = _radius_free(f, None)
    at_a = at_inf if aq is None else _radius_free(f, aq)
    if form == 3:
        own = [(at_a.proximity_request(r),) for r in radii]
    elif form == 2:
        # the twist of a slice-preserving f by a real a stays on S_q
        on_slice = f.is_real and aq.is_real()
        own = [((_fmt_proximity_columns(f, at_a.g, aq, r), r, on_slice),) for r in radii]
    else:  # form 1
        conj_f = f.conjugate()

        def envelope_columns(pts):
            sef = f.stems(pts)
            sec = conj_f.stems(pts)
            lam = np.maximum(sef.log_abs() + sec.log_abs(), 0.0)
            return lam[:, None], sef.ok & sec.ok

        own = [(at_a.request(r), (envelope_columns, r, f.is_real)) for r in radii]
    rows = []
    means = _mean_rows([(at_inf.request(r), *req) for r, req in zip(radii, own)], cfg)
    for r, ((sym_inf,), *own_means) in zip(radii, means):
        t_inf, t_err = at_inf.at(r, sym_inf)
        counting, remainder = at_a.counting(r), at_a.remainder(r)
        if form == 3:
            ((prox,),) = own_means
            row = {
                "r": r,
                "N": counting,
                "m": prox.value,
                "m_std_error": prox.std_error,
                "H": remainder,
                "T_infinity": t_inf,
                "residual": counting + prox.value - remainder - t_inf,
                "three_sigma": 3.0 * math.hypot(prox.std_error, t_err),
            }
        elif form == 2:
            ((m_fa, m_fsa_a, m_fsf_inf, m_fsa_inf),) = own_means
            left = counting + 0.5 * m_fa.value + 0.5 * m_fsa_a.value - remainder
            right = t_inf - 0.5 * m_fsf_inf.value + 0.5 * m_fsa_inf.value
            row = {
                "r": r,
                "left": left,
                "right": right,
                "residual": left - right,
                "m_fa": m_fa.value,
                "m_fSa_at_a": m_fsa_a.value,
                "m_fSf_inf": m_fsf_inf.value,
                "m_fSa_inf": m_fsa_inf.value,
            }
        else:  # form 1
            (sym_a,), (envelope,) = own_means
            t_a = at_a.at(r, sym_a)[0]
            row = {
                "r": r,
                "T_a": t_a,
                "T_infinity": t_inf,
                "residual": t_a - t_inf,
                "envelope": envelope.value,
                "envelope_std_error": envelope.std_error,
            }
        rows.append(row)
    residuals = [row["residual"] for row in rows]
    summary = {
        **_o1_fields(radii, residuals),
        "max_abs_residual": max(abs(x) for x in residuals),
    }
    if form == 1:
        env = np.asarray([row["envelope"] for row in rows])
        res = np.asarray(residuals)
        if float(env.max() - env.min()) > 1e-12:
            coeff, offset = np.polyfit(env, res, 1)
        else:
            coeff, offset = 0.0, float(res.mean())
        summary["coefficient"] = float(coeff)
        summary["offset"] = float(offset)
        summary["coefficient_ok"] = abs(float(coeff)) <= 1.0 + 1e-9
        summary["max_defect"] = float(np.max(np.abs(res) - env))
    return {"form": form, "a": _a_label(a), "rows": rows, "summary": summary}


# ---------------------------------------------------------------------------
# Characteristic algebra suite
# ---------------------------------------------------------------------------


def _sandwich_columns(f, fs):
    """Column function of the mean slacks of the symmetrization proximity sandwich.

    lower = mean(log⁺|f| + log⁺|f∘S_f| − log⁺|f^s|): the integrand is
    pointwise nonnegative, so the mean can dip below zero only by
    rounding.  upper = mean(log⁺|f^s| + log 2 − log⁺|f| − log⁺|f∘S_f|):
    nonnegative at the level of means (the pointwise excess concentrates
    near conjugate points of zeros), so it carries Monte-Carlo noise.
    ``fs`` is f.symmetrize().
    """
    def columns(pts):
        sef = f.stems(pts)
        ses = fs.stems(pts)
        la = np.maximum(sef.log_abs(), 0.0)
        lat_raw, ok_t = sef.log_abs_twisted(None)
        lat = np.maximum(lat_raw, 0.0)
        ls = np.maximum(ses.log_abs(), 0.0)
        lower = la + lat - ls
        upper = ls + math.log(2.0) - la - lat
        ok = sef.ok & ses.ok & ok_t
        return np.stack([lower, upper], axis=1), ok

    return columns


def _equality_row(name, diffs, gates=None) -> dict:
    """Equality row: passes when every per-radius |difference| is within its gate.

    ``gates`` defaults to the rounding gate _EQUALITY_TOL at every radius.
    """
    gates = [_EQUALITY_TOL] * len(diffs) if gates is None else gates
    return {"identity": name, "kind": "equality", "value": max(diffs),
            "gate": max(gates), "pass": all(d <= g for d, g in zip(diffs, gates))}


def _inequality_row(name, slacks, gates=None) -> dict:
    """Inequality row: passes when no per-radius slack dips below −gate.

    The reported gate is −max(gates); ``gates`` defaults to _EQUALITY_TOL.
    """
    gates = [_EQUALITY_TOL] * len(slacks) if gates is None else gates
    return {"identity": name, "kind": "inequality", "value": min(slacks),
            "gate": -max(gates), "pass": all(s + g >= 0.0 for s, g in zip(slacks, gates))}


def characteristic_algebra_suite(f, g, a, b, t, radii, cfg: IntegratorConfig):
    """Battery of characteristic-function identities over a radius grid.

    Equality rows carry a shared-stream gate (1e-9 for rounding-exact
    identities, 3σ for Monte-Carlo ones); inequality rows carry the
    minimum slack with a −3σ gate; bounded-gap rows report the grid
    spread and log-r slope without asserting (boundedness is not
    numerically decidable).  ``t``, an invertible 2×2 quaternion
    transform (a GL2H), is required: it feeds the fractional-linear row.

    Returns a list of row dicts keyed by "identity".
    """
    radii = [float(r) for r in radii]
    if isinstance(f, SemiregularRational) or isinstance(g, SemiregularRational):
        f = as_rational(f)
        g = as_rational(g)
    aq = _target(a)
    bq = _target(b)
    # first, so an f^s past the float range is named before the star powers overflow
    fs = f.symmetrize()
    powers = {n: star_power(f, n) for n in (2, 3)}
    fg = f * g
    fpg = f + g
    # h^c = g * f^c for h = f * g^c, so h + h^c is real by construction: its imaginary rows cancel
    h = f * g.conjugate()
    mixed = h + h.conjugate()
    fc = f.conjugate()
    a_conj = None if aq is None else aq.conj()
    recip = as_rational(f).star_reciprocal()
    phi = linear_fractional(t, f)

    # ---- phase 1: every Monte-Carlo pass the rows read ------------------------
    # T(fn, target, r) recurs across rows: each distinct (function,
    # target) gets one radius-free part and one pass per radius.  A target
    # keys by its components, whose equality takes −0.0 for 0.0, so at
    # a = 0 the conjugate target ā = −0 is a.  A pair missing here makes T
    # raise KeyError.
    def t_key(fn, target):
        return (json.dumps(fn.to_json()),
                None if target is None else tuple(target.to_array().tolist()))

    t_pairs = [(f, None), (g, None), *((fn, None) for fn in powers.values()),
               (fg, None), (fpg, None), (fc, aq), (f, a_conj), (fs, None),
               (f, aq), (f, bq), (recip, aq), (phi, aq)]
    distinct = {t_key(fn, target): (fn, target) for fn, target in t_pairs}
    parts = {key: _radius_free(*pair) for key, pair in distinct.items()}
    requests = {(key, r): part.request(r) for key, part in parts.items() for r in radii}
    for r in radii:
        requests["mixed", r] = _proximity_columns(mixed, False, r), r, mixed.is_real
        # fs is real, so the sandwich reads I through f alone
        requests["sandwich", r] = _sandwich_columns(f, fs), r, f.is_real

    # ---- phase 2: one walk of the stream serves every pass --------------------
    means = dict(zip(requests, mean_batch(list(requests.values()), cfg)))

    def T(fn, target, r):
        key = t_key(fn, target)
        return parts[key].at(r, means[key, r][0])

    # ---- gated rows: one helper call each, (T, std error) pairs per radius ----
    t_f = [T(f, None, r) for r in radii]
    t_g = [T(g, None, r) for r in radii]
    t_fg = [T(fg, None, r) for r in radii]
    t_fpg = [T(fpg, None, r) for r in radii]
    mixed_means = [means["mixed", r][0] for r in radii]
    t_ca = [T(fc, aq, r) for r in radii]
    t_s = [T(fs, None, r) for r in radii]
    lows, highs = zip(*(means["sandwich", r] for r in radii))
    rows = [
        # exact star-power scaling at infinity
        *(_equality_row(f"star_power_{n}",
                        [abs(T(fn, None, r)[0] - n * tf[0]) for r, tf in zip(radii, t_f)])
          for n, fn in powers.items()),
        # subadditivity under the *-product
        _inequality_row(
            "star_subadditivity",
            [tf[0] + tg[0] - p[0] for tf, tg, p in zip(t_f, t_g, t_fg)],
            [3.0 * math.sqrt(tf[1] ** 2 + tg[1] ** 2 + p[1]**2)
             for tf, tg, p in zip(t_f, t_g, t_fg)],
        ),
        # subadditivity under + with the mixed proximity term
        _inequality_row(
            "plus_subadditivity",
            [tf[0] + tg[0] + math.log(3.0) + 0.5 * m.value - p[0]
             for tf, tg, p, m in zip(t_f, t_g, t_fpg, mixed_means)],
            [3.0 * math.sqrt(tf[1] ** 2 + tg[1] ** 2 + p[1]**2 + (0.5 * m.std_error) ** 2)
             for tf, tg, p, m in zip(t_f, t_g, t_fpg, mixed_means)],
        ),
        # conjugation sends the target to its conjugate (rounding-exact)
        _equality_row("conjugate_invariance",
                      [abs(ca[0] - T(f, a_conj, r)[0]) for r, ca in zip(radii, t_ca)]),
        # T(f^c, a, r) vs ½T(f^s, ∞, r) (exact when a = 0 and |f(0)| = 1); the
        # two passes share one stream and are correlated, so the gate adds
        # their σ, the bound on σ of the difference under any correlation
        _equality_row(
            "half_symmetrization_chain",
            [abs(ca[0] - 0.5 * s[0]) for ca, s in zip(t_ca, t_s)],
            [3.0 * (ca[1] + 0.5 * s[1]) for ca, s in zip(t_ca, t_s)],
        ),
        # proximity sandwich around the symmetrization
        _inequality_row("sandwich_lower", [m.value for m in lows]),
        _inequality_row("sandwich_upper", [m.value for m in highs],
                        [m.three_sigma for m in highs]),
    ]

    # ---- bounded-gap reports (never asserted) ---------------------------------
    gaps = {
        "target_shift": [T(f, aq, r)[0] - T(f, bq, r)[0] for r in radii],
        "star_reciprocal": [T(recip, aq, r)[0] - T(f, aq, r)[0] for r in radii],
        "fractional_linear": [T(phi, aq, r)[0] - T(f, aq, r)[0] for r in radii],
        "finite_target_gap": [T(f, aq, r)[0] - tf[0] for r, tf in zip(radii, t_f)],
    }
    for name, values in gaps.items():
        rows.append({"identity": name, "kind": "o1", **_o1_fields(radii, values),
                     "per_radius": values})
    return rows


# ---------------------------------------------------------------------------
# Attainment bound
# ---------------------------------------------------------------------------


def n_bound_check(f, a, radii, cfg: IntegratorConfig):
    """How often f attains a: report N(f,a,r) − T(f,r) − H(f,a,r) per radius.

    The excess is bounded above for mean-proximity-balanced f; the report
    carries its supremum over the grid rather than asserting a constant.
    No command calls it; it stays while the benchmark's tracer
    (perfbench/tracer.py) wraps it and tests/test_bench_hooks.py pins that
    target, and goes with the tracer's change (ROADMAP item 5a).
    """
    rows = [{"r": row["r"], "N": row["N"], "T_infinity": row["T_infinity"], "H": row["H"],
             "excess": row["N"] - row["T_infinity"] - row["H"]}
            for row in verify_fmt(f, a, radii, cfg, form=3)["rows"]]
    return {"a": _a_label(a), "rows": rows, "sup_excess": max(row["excess"] for row in rows)}


# ---------------------------------------------------------------------------
# Radius profiles
# ---------------------------------------------------------------------------


def _a_label(a) -> str:
    aq = _target(a)
    return "inf" if aq is None else json.dumps([aq.w, aq.x, aq.y, aq.z])


@dataclass(frozen=True)
class NevanlinnaProfile:
    """Radius profile of the Nevanlinna functions of one (f, a) pair.

    Columns per radius: integrated counting N, mean proximity m (with
    its standard error), harmonic remainder H, characteristic T, and the
    angular term A of the counting decomposition.  N, H, A are
    closed-form; m and T carry Monte-Carlo noise.
    """

    function_id: str
    a_label: str
    radii: tuple
    N: tuple
    m: tuple
    m_std_error: tuple
    H: tuple
    T: tuple
    A: tuple
    config: IntegratorConfig

    CSV_COLUMNS = ("r", "N", "m", "m_std_error", "H", "T", "A")

    def __post_init__(self):
        n = len(self.radii)
        for name in ("N", "m", "m_std_error", "H", "T", "A"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length differs from radii")
        for r in self.radii:
            _check_radius(r)

    @staticmethod
    def compute(f, a, radii, cfg: IntegratorConfig) -> "NevanlinnaProfile":
        """Evaluate the five Nevanlinna columns of (f, a) on a radius grid."""
        radii = tuple(float(r) for r in radii)
        parts = _radius_free(f, a)
        means = _mean_rows(
            [(parts.proximity_request(r), parts.request(r)) for r in radii],
            cfg,
        )
        col_N, col_m, col_me, col_H, col_T, col_A = [], [], [], [], [], []
        for r, ((prox,), (sym_mean,)) in zip(radii, means):
            col_N.append(parts.counting(r))
            col_m.append(prox.value)
            col_me.append(prox.std_error)
            col_H.append(parts.remainder(r))
            col_T.append(parts.at(r, sym_mean)[0])
            col_A.append(angular_term(parts.divisor, parts.side, r))
        return NevanlinnaProfile(
            function_id=json.dumps(f.to_json()),
            a_label=_a_label(a),
            radii=radii,
            N=tuple(col_N),
            m=tuple(col_m),
            m_std_error=tuple(col_me),
            H=tuple(col_H),
            T=tuple(col_T),
            A=tuple(col_A),
            config=cfg,
        )

    def rows(self):
        """Per-radius rows in CSV column order."""
        for i, r in enumerate(self.radii):
            yield (r, self.N[i], self.m[i], self.m_std_error[i],
                   self.H[i], self.T[i], self.A[i])

    def to_json(self):
        blob = asdict(self)
        blob["function"] = json.loads(blob.pop("function_id"))
        blob["a"] = blob.pop("a_label")
        return blob
