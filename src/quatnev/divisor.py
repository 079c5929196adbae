"""Zero/pole bookkeeping: sphere divisors, the Jensen kernel, counting functions.

A semiregular rational f = g * h^{-*} vanishes (or blows up) on isolated
real points and isolated spheres S_ζ; everything countable about them is a
function of the real polynomials g^s and h^s alone.  This module extracts
conjugate-closed complex root sets, converts them into signed total-order
divisors (zeros positive, poles negative, real roots at half the
symmetrization multiplicity, the origin kept separate), and evaluates the
integrated counting function N, the angular term A and their integral
representations in closed form — the integrands are elementary on each
interval between divisor radii, so the dual-route identity checks carry no
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quat_core import SliceComplex, _check_radius
from .star_poly import LeftPoly, RealPoly, SemiregularRational

__all__ = [
    "SphereDivisor",
    "ZeroPolynomial",
    "BoundaryDivisor",
    "UnbalancedDivisor",
    "ZeroCenter",
    "complex_roots",
    "total_order_divisor",
    "jensen_kernel",
    "signed_kernel_sum",
    "N_integrated",
    "N_via_unintegrated",
    "angular_term",
    "angular_identity_check",
    "analytic_characterization_check",
]


class ZeroCenter(ValueError):
    """The Jensen kernel centered at zero is undefined."""


class ZeroPolynomial(ValueError):
    """Root extraction / divisor of the identically-zero polynomial."""


class BoundaryDivisor(ArithmeticError):
    """A divisor sphere sits on the integration boundary |ζ| = r (within 1e-12·r)."""


class UnbalancedDivisor(ArithmeticError):
    """The orders found for g or h do not sum to its degree.

    The root finder merged or lost roots: the roots it found on and above
    the real axis do not account for the degree, or a real root of a
    symmetrization came back with odd multiplicity.  The divisor would be
    wrong, so none is returned.
    """


# ---------------------------------------------------------------------------
# complex root extraction
# ---------------------------------------------------------------------------

_ABERTH_MAX_ITER = 400
_POLISH_MAX_ITER = 60
_BACKWARD_EPS = 16.0 * np.finfo(float).eps
_REAL_SNAP = 1e-8
_SPHERE_MERGE_TOL = 1e-8


def _eval_rows(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """The rows c, |c| and dc = c′ (padded with a leading 0) that _horner evaluates."""
    rows = np.zeros((3, c.shape[0]), dtype=complex)
    rows[0], rows[1] = c, np.abs(c)
    rows[2, : dc.shape[0]] = dc
    return rows


def _horner(rows: np.ndarray, z: np.ndarray):
    """p(z), the rounding bound 16ε·Σ|c_i||z|^i and p′(z) for the rows of
    _eval_rows, from one Horner pass over the stacked rows.

    Each row keeps npoly.polyval's operation order (c[-1] + x*0, then
    c[k] + acc*x), so each value has its bits: the |c| row is evaluated at
    |z| with zero imaginary parts, which leave its real part exact."""
    x = np.empty((3, z.shape[0]), dtype=complex)
    x[0], x[1], x[2] = z, np.abs(z), z
    acc = rows[:, -1:] + x * 0
    for k in range(rows.shape[1] - 2, -1, -1):
        acc *= x
        acc += rows[:, k : k + 1]
    return acc[0], _BACKWARD_EPS * acc[1].real, acc[2]


def _aberth_iterate(c: np.ndarray):
    """Simultaneous root iteration (Aberth–Ehrlich) for the monic coefficient
    array of a real polynomial (lowest degree first, complex dtype, c[0] ≠ 0).

    Starts at the eigenvalues of the real companion matrix of c, which are
    backward-stable approximations of the roots (Edelman & Murakami, Math.
    Comp. 64, 1995), and stops once every approximant meets the
    backward-error test; _ABERTH_MAX_ITER is only a safety cap.  Where
    the eigenvalues are not all finite and pairwise distinct, as for the
    exact double root of (q − ½)² or coefficients far beyond unit scale,
    it starts on the circle |z| = |c₀|^{1/n}, the geometric mean of the
    root moduli, instead.
    Returns the approximants z and ρ = |p(z)| + 16ε·Σ|c_i||z|^i at them."""
    deg = c.shape[0] - 1
    z = c  # a non-finite c fails the test below as it stands
    if np.isfinite(c).all():
        z = np.linalg.eigvals(npoly.polycompanion(c.real)).astype(complex)
    if not (np.isfinite(z).all() and np.unique(z).shape[0] == deg):
        radius = abs(c[0]) ** (1.0 / deg)
        k = np.arange(deg)
        # a slightly spiralled circle; the angular offset breaks the
        # conjugation symmetry that can stall simultaneous iterations on
        # real coefficient input
        z = radius * (1.0 + 0.01 * k / max(deg, 1)) * np.exp(
            1j * (2.0 * np.pi * (k + 0.353) / deg + 0.007 * k)
        )
    rows = _eval_rows(c, npoly.polyder(c))
    for _ in range(_ABERTH_MAX_ITER):
        pz, bound, dpz = _horner(rows, z)
        if (np.abs(pz) <= bound).all():
            break
        dpz = np.where(np.abs(dpz) < 1e-300, 1e-300, dpz)
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        srecip = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * srecip
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - w / denom
    else:
        pz, bound, _dpz = _horner(rows, z)
    return z, np.abs(pz) + bound


def _inclusion_components(z: np.ndarray, rho: np.ndarray):
    """Inclusion discs of the approximants z of a monic degree-n polynomial,
    and per approximant the smallest index in its connected component of
    overlapping discs.

    Disc k has radius n·ρ_k / |∏_{j≠k}(z_k − z_j)|.  A component of m discs
    holds exactly m roots of p, and of every perturbation of p within the
    evaluation bound in ρ (Bini & Fiorentino, Numer. Algorithms 23, 2000).
    Coincident approximants leave each other out of the product and share
    a component."""
    dist = np.abs(z[:, None] - z[None, :])
    prod = np.where(dist > 0.0, dist, 1.0).prod(axis=1)
    radii = np.divide(z.shape[0] * rho, prod, out=np.full(z.shape, np.inf), where=prod > 0.0)
    touch = dist <= radii[:, None] + radii[None, :]
    labels = np.arange(z.shape[0])
    while True:
        nxt = np.where(touch, labels[None, :], labels.shape[0]).min(axis=1)
        if (nxt == labels).all():
            return radii, labels
        labels = nxt


def _polish(chain: list[np.ndarray], z: np.ndarray, mult: int) -> np.ndarray:
    """Newton on p^{(m−1)} from every candidate m-fold root in z at once.

    A candidate stops once p^{(m−1)} has met the backward-error test at two
    successive iterates; the step computed at each is still taken, as it
    costs no further evaluation.  The second step takes a representable
    root, such as ±i of q²+1, from within rounding of it onto it exactly."""
    rows = _eval_rows(chain[mult - 1], chain[mult])
    z = z.copy()
    todo = np.arange(z.shape[0])
    passed = np.zeros(z.shape[0], dtype=bool)
    for _ in range(_POLISH_MAX_ITER):
        w = z[todo]
        fw, bound, dw = _horner(rows, w)
        movable = np.abs(dw) >= 1e-300
        step = np.divide(fw, dw, out=np.zeros_like(fw), where=movable)
        z[todo] = w - step
        ok = np.abs(fw) <= bound
        keep = movable & ~(ok & passed[todo])
        passed[todo] = ok
        todo = todo[keep]
        if not todo.size:
            break
    return z


def complex_roots(p) -> list[tuple[complex, int]]:
    """Roots of a real-coefficient polynomial with multiplicities.

    Returns a conjugate-closed list of (root, multiplicity) pairs, read
    off the closed upper half-plane; its multiplicities sum to the degree
    unless the root clusters found below the axis differ from the mirror
    images of those above it.  After the origin is
    divided out, the roots are found as y = z/2^e, e = ⌊(E₀ − E_n)/n + ½⌋
    from the binary exponents E₀ and E_n of c₀ and c_n, so the root scale
    |c₀/c_n|^{1/n} is within a factor of about 2 of 2^e; every rule below
    then reads unit root scale, and q → 2^k·q scales each root found by
    exactly 2^−k.  Aberth–Ehrlich iteration starts at the eigenvalues of
    the companion matrix, or on the circle of the geometric mean of the
    root moduli where those are not finite and pairwise distinct, and
    stops once every approximant z_k has backward error
    |p(z_k)| ≤ 16ε·Σ|c_i||z_k|^i.
    The approximants are then clustered once: each gets the inclusion disc
    of radius n·ρ_k/|c_n·∏_{j≠k}(z_k − z_j)|, with ρ_k = |p(z_k)| plus
    that evaluation bound, and a connected component of m discs is one
    m-fold root.  All components of one size m are Newton-polished
    together on p^{(m−1)} to the same backward-error test from the
    centroids of their members; a polished point that leaves its
    component's discs falls back to the centroid.  A root y within
    1e-8·(1+|y|) of the real axis snaps onto it, one above the axis is
    emitted with its exact conjugate, and one below it is not emitted.

    Raises ZeroPolynomial for the identically-zero input, and OverflowError
    where p overflows near its roots, so an approximant or its evaluation
    bound is not finite.
    """
    if not isinstance(p, RealPoly):
        raise ValueError("complex_roots needs a real-coefficient polynomial")
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no root set")
    origin_mult = p.origin_order()
    coeff = p.real_coeffs[origin_mult:]
    roots: list[tuple[complex, int]] = []
    if origin_mult:
        roots.append((0j, origin_mult))
    deg = coeff.shape[0] - 1
    if deg == 0:
        return roots
    # ⌊x + ½⌋ moves by exactly −k under q → 2^k·q, where round()'s half-to-even would not
    e = math.floor((math.frexp(coeff[0])[1] - math.frexp(coeff[-1])[1]) / deg + 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (np.ldexp(coeff, e * np.arange(-deg, 1)) if e else coeff).astype(complex)
        chain = [y / y[-1]]  # p, p', … as far as the largest cluster needs
        raw, rho = _aberth_iterate(chain[0])
    if not np.isfinite(rho).all():
        # Fujiwara's bound 2·max_k |c_k/c_n|^{1/(n−k)} on the root moduli, in
        # logs, as the monic coefficients need not fit a float
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(coeff))
        log_bound = math.log(2.0) + float(np.max((logs[:-1] - logs[-1]) / (deg - np.arange(deg))))
        raise OverflowError(
            f"a degree-{deg} polynomial with roots up to about {_power_of_ten(log_bound)} "
            "overflows a float there, so the root iteration left non-finite approximants"
        )
    radii, labels = _inclusion_components(raw, rho)
    heads, member_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    centroids = raw[heads]  # a singleton component's centroid is its member
    for k in np.nonzero(sizes > 1)[0]:
        centroids[k] = raw[member_of == k].mean()
    best = centroids.copy()
    for mult in np.unique(sizes):
        while len(chain) <= mult:
            chain.append(npoly.polyder(chain[-1]))
        at = np.nonzero(sizes == mult)[0]
        polished = _polish(chain, centroids[at], mult)
        inside = (np.abs(polished[:, None] - raw[None, :]) <= radii[None, :]) & (
            member_of[None, :] == at[:, None]
        )
        best[at] = np.where(inside.any(axis=1), polished, centroids[at])
    found: list[tuple[complex, int]] = []
    for z, m in zip(best.tolist(), sizes.tolist()):
        if abs(z.imag) <= _REAL_SNAP * (1.0 + abs(z)):
            found.append((complex(z.real, 0.0), m))
        elif z.imag > 0.0:
            found += [(z, m), (z.conjugate(), m)]
    found.sort(key=lambda rm: (round(abs(rm[0]), 10), rm[0].real, rm[0].imag))
    if e:
        found = [(complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)), m) for z, m in found]
    return roots + found


# ---------------------------------------------------------------------------
# SphereDivisor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereDivisor:
    """Signed sphere divisor: entries (ζ, ordt) with ordt ≠ 0, plus the
    total order at the origin kept separate.

    ζ is the canonical sphere key (re, im ≥ 0); positive orders are zeros,
    negative are poles.  Real points appear as (x, 0) spheres.
    """

    entries: tuple[tuple[SliceComplex, int], ...] = ()
    origin_order: int = 0

    def __post_init__(self):
        seen = set()
        for sphere, order in self.entries:
            if order == 0:
                raise ValueError("divisor entries must have nonzero order")
            key = (sphere.re, sphere.im)
            if key in seen:
                raise ValueError(f"duplicate sphere {key} in divisor")
            if sphere.re == 0.0 and sphere.im == 0.0:
                raise ValueError("the origin belongs in origin_order, not entries")
            seen.add(key)

    @staticmethod
    def build(pairs, origin_order: int = 0) -> "SphereDivisor":
        """The one merge of divisor spheres: each sphere joins the first earlier
        one within _SPHERE_MERGE_TOL·|ζ_ref|, which keeps its key and sums
        the orders, so exact duplicates merge and zero and pole spheres from two
        separate root finds cancel.  Zero orders are dropped, and the entries
        are sorted by (|ζ|, re, im), the order side() uses."""
        slots: list[list] = []
        for sphere, order in pairs:
            for slot in slots:
                ref = slot[0]
                dist = math.hypot(ref.re - sphere.re, ref.im - sphere.im)
                if dist <= _SPHERE_MERGE_TOL * ref.modulus():
                    slot[1] += int(order)
                    break
            else:
                slots.append([sphere, int(order)])
        slots.sort(key=lambda slot: (slot[0].modulus(), slot[0].re, slot[0].im))
        return SphereDivisor(tuple((s, k) for s, k in slots if k != 0), origin_order)

    def side(self, side: str):
        """(order at the origin, [(modulus, sphere, order>0)]) on the requested
        side, the spheres in the (|ζ|, re, im) order that build gives the entries."""
        if side not in ("zero", "pole"):
            raise ValueError("side must be 'zero' or 'pole'")
        sign = 1 if side == "zero" else -1
        spheres = [(s.modulus(), s, sign * k) for s, k in self.entries if sign * k > 0]
        return max(sign * self.origin_order, 0), spheres


def _power_of_ten(log_x: float) -> str:
    """e-notation of x = exp(log_x), also beyond the float range."""
    log10_x = log_x / math.log(10.0)
    e = math.floor(log10_x)
    return f"{10.0 ** (log10_x - e):.3f}e{e:+d}"


def total_order_divisor(f) -> SphereDivisor:
    """Signed total-order divisor of a polynomial or semiregular rational.

    The total order at S_ζ is the multiplicity of the canonical complex
    representative ζ (Im ζ ≥ 0) in g^s minus its multiplicity in h^s; real
    roots carry half their symmetrization multiplicity (which is always
    even), and the order at the origin is tracked separately.  A
    slice-preserving g or h has g^s = g², so its own roots are found
    instead, at twice their multiplicity.  A nonreal h is not symmetrized
    again: its roots are those of den_s, the h^s at a power-of-two scale
    that the rational already holds.  The sides are g and h of a
    SemiregularRational as it holds them, or the polynomial alone; the
    spheres of both go through SphereDivisor.build, which cancels a zero
    sphere against a pole sphere found within its merge tolerance.

    Raises UnbalancedDivisor when the orders found for g, with its order at
    the origin, do not sum to deg g, or likewise for h, and OverflowError
    when a symmetrization lost its leading or lowest coefficient below the
    float range, or complex_roots raises it.
    """
    sides = ((f.num, 1), (f.den, -1)) if isinstance(f, SemiregularRational) else ((f, 1),)
    if f.is_zero:
        raise ZeroPolynomial("the zero function has no divisor")
    origin = 0
    pairs: list[tuple[SliceComplex, int]] = []
    for side, sign in sides:
        total = side.origin_order()
        origin += sign * total
        if side.degree <= 0:
            continue
        if isinstance(side, RealPoly):
            poly, power = side, 2
        elif sign < 0:
            poly, power = f.den_s, 1  # h^s at a power-of-two scale, as f holds it
        else:
            # a copy scaled by 2^−e has the same roots, and its f^s does not
            # overflow where that of the side would
            e = math.frexp(np.abs(side.coeffs).max())[1]
            poly, power = LeftPoly(np.ldexp(side.coeffs, -e)).symmetrize(), 1
        if power == 1 and (poly.degree, poly.origin_order()) != (2 * side.degree, 2 * total):
            raise OverflowError(
                f"the symmetrization of a degree-{side.degree} side lost a coefficient below the "
                f"float range: it has degree {poly.degree} and origin order {poly.origin_order()}"
            )
        for z, mult in complex_roots(poly):
            mult *= power
            if z == 0:
                continue
            if z.imag < 0.0:
                continue  # canonical representative has Im ≥ 0
            if z.imag == 0.0:
                if mult % 2:
                    raise UnbalancedDivisor(
                        f"real root {z.real} of a symmetrization has odd multiplicity {mult}"
                    )
                order = mult // 2
            else:
                order = mult
            total += order
            pairs.append((SliceComplex(z.real, z.imag), sign * order))
        if total != side.degree:
            raise UnbalancedDivisor(
                f"orders sum to {total} on a polynomial of degree {side.degree}"
            )
    return SphereDivisor.build(pairs, origin)


# ---------------------------------------------------------------------------
# Jensen kernel and counting functions
# ---------------------------------------------------------------------------


def _refuse_boundary(mod: float, r: float) -> None:
    """Raise BoundaryDivisor when a sphere of modulus mod sits on |ζ| = r within 1e-12·r."""
    if abs(mod - r) <= 1e-12 * r:
        raise BoundaryDivisor(f"divisor sphere |ζ| = {mod} on the boundary r = {r}")


def _sphere_ratio(sphere: SliceComplex, r: float):
    """(t, ρ, c, d) of the sphere S_ζ at the radius r, from which every kernel term is read.

    t = |ζ|/r and ρ = r/|ζ|, and c = Re ζ/|ζ| and d = Im ζ/|ζ| are the
    direction cosines of ζ.  Nothing divides by |ζ|² or |ζ|⁴, and nothing
    is squared: each reader squares only what its term needs.
    """
    mod = sphere.modulus()
    return mod / r, r / mod, sphere.re / mod, sphere.im / mod


def _sphere_weight(sphere: SliceComplex, r: float):
    """(w, c, d) with w = (t² − ρ²)/4 and (t, ρ, c, d) of _sphere_ratio.  Then

        (|ζ|⁴ − r⁴)/(4r²|ζ|⁴)·(2(Re ζ)² − |ζ|²) = w·(c − d)(c + d),
        (|ζ|⁴ − r⁴)/(2r²|ζ|⁴)·(Re ζ)²            = 2w·c²,

    with t and ρ each squared on its own.  Raises OverflowError where w is
    past the float range: ρ² is for |ζ| below about 1e-154·r, and t² for
    |ζ| above about 1e154·r.
    """
    t, rho, c, d = _sphere_ratio(sphere, r)
    w = (t * t - rho * rho) / 4.0
    if not math.isfinite(w):
        raise OverflowError(
            f"((|ζ|/r)² − (r/|ζ|)²)/4 does not fit a float at the divisor sphere "
            f"|ζ| = {sphere.modulus()!r}, r = {r!r}"
        )
    return w, c, d


def jensen_kernel(sphere: SliceComplex, R: float) -> float:
    """J(ζ,R) = log(R/|ζ|) + w·(c − d)(c + d), with (w, c, d) of _sphere_weight.

    The per-sphere boundary contribution of a zero/pole sphere in the
    Jensen formula; J(ζ,|ζ|) = 0.  Raises ZeroCenter for ζ = 0,
    ValueError unless 0 < R < ∞, and OverflowError where w does not fit a
    float.
    """
    mod = sphere.modulus()
    if mod == 0.0:
        raise ZeroCenter("Jensen kernel is undefined for the origin sphere")
    _check_radius(R)
    w, c, d = _sphere_weight(sphere, R)
    return float(np.log(R / mod) + w * (c - d) * (c + d))


def signed_kernel_sum(d: SphereDivisor, R: float, convention: str = "corrected") -> float:
    """Σ ordt·J(ζ,R) over divisor spheres inside B_R, with signed orders.

    convention='doubled' doubles the kernel on nonreal spheres (the
    factor-2 variant); real spheres keep the single kernel,
    where the two kernel forms coincide.  Raises ValueError unless
    0 < R < ∞, and BoundaryDivisor if a sphere sits on |ζ| = R within
    1e-12·R.  verify_jensen reports both conventions, and the
    benchmark's divisor-sweep workload checks both.
    """
    if convention not in ("corrected", "doubled"):
        raise ValueError("convention must be 'corrected' or 'doubled'")
    _check_radius(R)
    total = 0.0
    for s, k in d.entries:
        mod = s.modulus()
        _refuse_boundary(mod, R)
        if mod > R:
            continue
        factor = 2.0 if (convention == "doubled" and s.im > 0.0) else 1.0
        total += k * factor * jensen_kernel(s, R)
    return total


def N_integrated(d: SphereDivisor, side: str, r: float) -> float:
    """N(f,a,r) = n(f,a,0)·log r + Σ_{0<|ζ|≤r} ordt⁺·J(ζ,r).

    Raises ValueError unless 0 < r < ∞, and BoundaryDivisor when a side
    sphere has |ζ| = r within 1e-12·r.
    """
    _check_radius(r)
    origin, spheres = d.side(side)
    total = origin * float(np.log(r))
    for mod, s, k in spheres:
        _refuse_boundary(mod, r)
        if mod < r:
            total += k * jensen_kernel(s, r)
    return total


def _step_pieces(spheres, r: float):
    """Partition (0, r] at the side-sphere moduli.

    Returns a list of (lo, hi, C, D): on (lo, hi] the cumulative count
    C(t) = n(t) − n(0) and the cumulative angular mass
    D(t) = Σ_{|ζ|≤t} ordt⁺·(Re ζ)² are the given constants.
    """
    jumps: dict[float, list[float]] = {}
    for mod, s, k in spheres:
        if mod <= 0.0 or mod > r:
            continue
        slot = jumps.setdefault(mod, [0.0, 0.0])
        slot[0] += k
        slot[1] += k * s.re * s.re
    pieces = []
    level_c = 0.0
    level_d = 0.0
    prev = 0.0
    for mod in sorted(jumps):
        if mod > prev:
            pieces.append((prev, mod, level_c, level_d))
        level_c += jumps[mod][0]
        level_d += jumps[mod][1]
        prev = mod
    if r > prev:
        pieces.append((prev, r, level_c, level_d))
    return pieces


def N_via_unintegrated(d: SphereDivisor, side: str, r: float) -> float:
    """N via its radial/angular decomposition.

    N = n(0)·log r + ∫₀ʳ (n(t) − n(0)) dt/t + Σ_{0<|ζ|<r} ordt⁺·w·(c − d)(c + d),

    with (w, c, d) of _sphere_weight and the dt/t integral taken in closed
    form over the counting step function.  An identity with N_integrated;
    kept as an independent arithmetic route.  Raises BoundaryDivisor when a
    side sphere has |ζ| = r within 1e-12·r, and OverflowError where w does
    not fit a float.
    """
    _check_radius(r)
    origin, spheres = d.side(side)
    total = origin * float(np.log(r))
    for lo, hi, c_level, _d_level in _step_pieces(spheres, r):
        if c_level != 0.0 and lo > 0.0:
            total += c_level * float(np.log(hi / lo))
    for mod, s, k in spheres:
        _refuse_boundary(mod, r)
        if mod < r:
            w, cos_re, cos_im = _sphere_weight(s, r)
            total += k * w * (cos_re - cos_im) * (cos_re + cos_im)
    return total


def angular_term(d: SphereDivisor, side: str, r: float) -> float:
    """A(f,a,r) = Σ_{0<|ζ|≤r} ordt⁺·2w·c² ≤ 0, with (w, c, _) of _sphere_weight.

    Raises OverflowError where w does not fit a float.
    """
    _check_radius(r)
    total = 0.0
    for mod, s, k in d.side(side)[1]:
        if mod <= r:
            w, cos_re, _cos_im = _sphere_weight(s, r)
            total += 2.0 * k * w * cos_re * cos_re
    return total


def angular_identity_check(d: SphereDivisor, side: str, r: float):
    """Residuals of the two integral representations of A(f,a,r).

    Representation 1:
        A = 4r² ∬_{0≤h≤t≤r} h·t⁻⁵·a_t(f,a,h) dh dt − 2r² ∫₀ʳ t⁻³·(n(t)−n(0)) dt
    Representation 2:
        A = −2r² ∫₀ʳ t⁻⁵·a_t^Re(f,a,t) dt

    Both are evaluated by exact piecewise integration over the divisor
    radii (the inner dh integral closes to (t² − (Re ζ)²)/2 per sphere, so
    the outer integrand is piecewise C·t⁻³ − D·t⁻⁵ with step constants C,
    D) and compared against the direct sum angular_term.  Returns
    (|rep1 − A|, |rep2 − A|).
    """
    _check_radius(r)
    pieces = _step_pieces(d.side(side)[1], r)
    A = angular_term(d, side, r)

    double_int = 0.0  # ∬ h t⁻⁵ a_t(f,a,h) dh dt over 0 ≤ h ≤ t ≤ r
    radial_int = 0.0  # ∫ t⁻³ (n−n₀) dt
    rep2_int = 0.0   # ∫ t⁻⁵ a_t^Re(f,a,t) dt
    for lo, hi, c_level, d_level in pieces:
        if lo <= 0.0:
            continue
        inv2 = (lo**-2 - hi**-2) / 2.0
        inv4 = (lo**-4 - hi**-4) / 4.0
        double_int += 0.5 * (c_level * inv2 - d_level * inv4)
        radial_int += c_level * inv2
        rep2_int += d_level * inv4
    rep1 = 4.0 * r**2 * double_int - 2.0 * r**2 * radial_int
    rep2 = -2.0 * r**2 * rep2_int
    return abs(rep1 - A), abs(rep2 - A)


def analytic_characterization_check(d: SphereDivisor, side: str, r: float):
    """Equality and bound checks for the integral characterization of N.

    eq1:  N = n(0)·log r + ∫ (n−n₀) dt/t + Σ ordt⁺·angular kernel
    eq2:  N = n(0)·log r + ∫ (n−n₀) dt/t
              + ∫ ((t⁴+r⁴)/(2r²t³))·(n−n₀) dt + A
    bound: N ≥ n(0)·log r + ∫ (n−n₀) dt/t − ∫ ((t⁴+r⁴)/(2r²t³))·(n−n₀) dt

    Returns (|eq1 − N|, |eq2 − N|, slack) with slack = N − bound (≥ 0 up
    to rounding).  All integrals are closed-form piecewise.
    """
    N = N_integrated(d, side, r)
    eq1 = N_via_unintegrated(d, side, r)
    origin, spheres = d.side(side)
    pieces = _step_pieces(spheres, r)
    log_int = 0.0
    mixed_int = 0.0  # ∫ (t⁴+r⁴)/(2r²t³) (n−n₀) dt
    for lo, hi, c_level, _d_level in pieces:
        if lo <= 0.0 or c_level == 0.0:
            continue
        log_int += c_level * float(np.log(hi / lo))
        # ∫ (t⁴+r⁴)/(2r²t³) dt = t²/(4r²) − r²/(4t²)
        anti = (hi**2 - lo**2) / (4.0 * r**2) + (r**2 / 4.0) * (lo**-2 - hi**-2)
        mixed_int += c_level * anti
    base = origin * float(np.log(r)) + log_int
    eq2 = base + mixed_int + angular_term(d, side, r)
    bound = base - mixed_int
    return abs(eq1 - N), abs(eq2 - N), N - bound
