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

    The root finder merged or lost roots: a cluster came back with no
    conjugate partner, or a real root with odd multiplicity in a
    symmetrization.  The divisor would be wrong, so none is returned.
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
    """Simultaneous root iteration (Aberth–Ehrlich) for a monic coefficient
    array (lowest degree first, complex, c[0] ≠ 0).

    Starts on the circle |z| = |c₀|^{1/n}, the geometric mean of the root
    moduli, and stops once every approximant meets the backward-error
    test; _ABERTH_MAX_ITER is only a safety cap.  Returns the approximants
    z and ρ = |p(z)| + 16ε·Σ|c_i||z|^i at them."""
    deg = c.shape[0] - 1
    radius = abs(c[0]) ** (1.0 / deg)
    k = np.arange(deg)
    # start on a slightly spiralled circle; the angular offset breaks the
    # conjugation symmetry that can stall simultaneous iterations on real
    # coefficient input
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

    Returns a list of (root, multiplicity) pairs whose multiplicities sum
    to the degree; it is conjugate-closed unless a nonreal cluster has no
    conjugate partner, which is kept once, as found.  After the origin is
    divided out, Aberth–Ehrlich iteration starts on the circle |z| = |c₀/c_n|^{1/n}
    (the geometric mean of the root moduli) and stops once every
    approximant z_k has backward error |p(z_k)| ≤ 16ε·Σ|c_i||z_k|^i.
    The approximants are then clustered once: each gets the inclusion disc
    of radius n·ρ_k/|c_n·∏_{j≠k}(z_k − z_j)|, with ρ_k = |p(z_k)| plus
    that evaluation bound, and a connected component of m discs is one
    m-fold root.  All components of one size m are Newton-polished
    together on p^{(m−1)} to the same backward-error test from the
    centroids of their members; a polished point that leaves its
    component's discs falls back to the centroid.  Roots within
    1e-8·(1+|z|) of the real axis snap onto it, and nonreal roots with a
    conjugate partner are emitted in exact conjugate pairs.

    Raises ZeroPolynomial for the identically-zero input.
    """
    if not isinstance(p, RealPoly):
        raise ValueError("complex_roots needs a real-coefficient polynomial")
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no root set")
    coeff = p.real_coeffs.astype(complex)
    origin_mult = p.origin_order()
    if origin_mult:
        coeff = coeff[origin_mult:]
    roots: list[tuple[complex, int]] = []
    if origin_mult:
        roots.append((0j, origin_mult))
    if coeff.shape[0] == 1:
        return roots
    chain = [coeff / coeff[-1]]  # p, p', … as far as the largest cluster needs
    raw, rho = _aberth_iterate(chain[0])
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
    roots.extend(_canonicalize_conjugate_pairs(list(zip(best, sizes.tolist()))))
    roots.sort(key=lambda rm: (round(abs(rm[0]), 10), rm[0].real, rm[0].imag))
    return roots


def _canonicalize_conjugate_pairs(clusters: list[tuple[complex, int]]):
    """Snap near-real roots, average conjugate partners, emit closed pairs.

    A nonreal cluster without a partner of the same multiplicity is emitted
    once, unchanged: inventing its conjugate would count its m roots 2m
    times.  total_order_divisor then finds the orders unbalanced.
    """
    snapped = []
    for z, m in clusters:
        if abs(z.imag) <= _REAL_SNAP * (1.0 + abs(z)):
            snapped.append((complex(z.real, 0.0), m))
        else:
            snapped.append((z, m))
    out: list[tuple[complex, int]] = []
    used = [False] * len(snapped)
    for i, (z, m) in enumerate(snapped):
        if used[i]:
            continue
        if z.imag == 0.0:
            out.append((z, m))
            used[i] = True
            continue
        partner = None
        for j in range(i + 1, len(snapped)):
            if used[j]:
                continue
            zj, mj = snapped[j]
            if zj.imag * z.imag < 0 and abs(zj - z.conjugate()) <= 1e-6 * (1.0 + abs(z)) and mj == m:
                partner = j
                break
        if partner is None:
            out.append((z, m))
            used[i] = True
            continue
        zj = snapped[partner][0]
        up = complex((z.real + zj.real) / 2.0, (abs(z.imag) + abs(zj.imag)) / 2.0)
        out.append((up, m))
        out.append((up.conjugate(), m))
        used[i] = used[partner] = True
    return out


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
        one within _SPHERE_MERGE_TOL·(1 + |ζ_ref|), which keeps its key and sums
        the orders, so exact duplicates merge and zero and pole spheres from two
        separate root finds cancel.  Zero orders are dropped, and the entries
        are sorted by (|ζ|², re, im)."""
        slots: list[list] = []
        for sphere, order in pairs:
            for slot in slots:
                ref = slot[0]
                dist = math.hypot(ref.re - sphere.re, ref.im - sphere.im)
                if dist <= _SPHERE_MERGE_TOL * (1.0 + ref.modulus()):
                    slot[1] += int(order)
                    break
            else:
                slots.append([sphere, int(order)])
        slots.sort(key=lambda slot: (slot[0].re ** 2 + slot[0].im ** 2, slot[0].re, slot[0].im))
        return SphereDivisor(tuple((s, k) for s, k in slots if k != 0), origin_order)

    def side(self, side: str):
        """(order at the origin, [(modulus, sphere, order>0)]) on the requested
        side, the spheres sorted by modulus."""
        if side not in ("zero", "pole"):
            raise ValueError("side must be 'zero' or 'pole'")
        sign = 1 if side == "zero" else -1
        spheres = [(s.modulus(), s, sign * k) for s, k in self.entries if sign * k > 0]
        spheres.sort(key=lambda row: (row[0], row[1].re, row[1].im))
        return max(sign * self.origin_order, 0), spheres


_LOG_HUGE = math.log(np.finfo(float).max)  # natural log of the largest float


def _check_root_scale(side, copies: int) -> None:
    """Raise OverflowError when the product of the roots complex_roots would find for side overflows.

    Those are copies·n roots (copies = 2 for the symmetrization), n the
    roots of side away from 0, found from a monic polynomial whose constant
    term is ± their product ρ^{copies·n}, with ρ = |c_lo / c_deg|^{1/n} the
    root scale of side.
    """
    lo = side.origin_order()
    n = side.degree - lo
    if n == 0:
        return
    log_rho = (math.log(math.hypot(*side.coeffs[lo])) - math.log(math.hypot(*side.coeffs[-1]))) / n
    if copies * n * log_rho >= _LOG_HUGE:
        raise OverflowError(
            f"the roots lie at scale {_power_of_ten(log_rho)}, so the {copies * n} roots to find "
            f"have a product near {_power_of_ten(copies * n * log_rho)}, which does not fit a float"
        )


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
    when the product of the roots to find for g or h overflows a float.
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
        _check_root_scale(side, 1 if isinstance(side, RealPoly) else 2)
        if isinstance(side, RealPoly):
            poly, power = side, 2
        elif sign < 0:
            poly, power = f.den_s, 1  # h^s at a power-of-two scale, as f holds it
        else:
            # a copy scaled by 2^−e has the same roots, and its f^s neither
            # overflows nor underflows where that of the side would
            e = math.frexp(np.abs(side.coeffs).max())[1]
            poly, power = LeftPoly(np.ldexp(side.coeffs, -e)).symmetrize(), 1
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


def _kernel_divisor(den: float, mod: float, r: float) -> float:
    """den, the c·r²·|ζ|⁴ a kernel term divides by, as given; OverflowError where it is 0.

    |ζ|⁴ underflows to 0 for |ζ| below about 1e-81, and c·r²·|ζ|⁴ sooner
    at a small r.
    """
    if den == 0.0:
        raise OverflowError(f"r²|ζ|⁴ underflows to 0 at the divisor sphere |ζ| = {mod!r}, r = {r!r}")
    return den


def jensen_kernel(sphere: SliceComplex, R: float) -> float:
    """J(ζ,R) = log(R/|ζ|) + ((|ζ|⁴−R⁴)/(4R²|ζ|⁴))·(2(Re ζ)² − |ζ|²).

    The per-sphere boundary contribution of a zero/pole sphere in the
    Jensen formula; J(ζ,|ζ|) = 0.  Raises ZeroCenter for ζ = 0,
    ValueError unless 0 < R < ∞, and OverflowError where 4R²|ζ|⁴ underflows.
    """
    mod = sphere.modulus()
    if mod == 0.0:
        raise ZeroCenter("Jensen kernel is undefined for the origin sphere")
    _check_radius(R)
    mod2 = mod * mod
    mod4 = mod2 * mod2
    return float(
        np.log(R / mod)
        + (mod4 - R**4) / _kernel_divisor(4.0 * R**2 * mod4, mod, R) * (2.0 * sphere.re**2 - mod2)
    )


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

    N = n(0)·log r + ∫₀ʳ (n(t) − n(0)) dt/t
        + Σ ordt⁺·((|ζ|⁴ − r⁴)/(4r²|ζ|⁴))·(2(Re ζ)² − |ζ|²),

    with the dt/t integral taken in closed form over the counting step
    function.  An identity with N_integrated; kept as an independent
    arithmetic route.  Raises OverflowError where 4r²|ζ|⁴ underflows.
    """
    _check_radius(r)
    origin, spheres = d.side(side)
    for mod, _s, _k in spheres:
        _refuse_boundary(mod, r)
    total = origin * float(np.log(r))
    for lo, hi, c_level, _d_level in _step_pieces(spheres, r):
        if c_level != 0.0 and lo > 0.0:
            total += c_level * float(np.log(hi / lo))
    for mod, s, k in spheres:
        if mod < r:
            mod2 = mod * mod
            mod4 = mod2 * mod2
            total += (k * (mod4 - r**4) / _kernel_divisor(4.0 * r**2 * mod4, mod, r)
                      * (2.0 * s.re * s.re - mod2))
    return total


def angular_term(d: SphereDivisor, side: str, r: float) -> float:
    """A(f,a,r) = Σ_{0<|ζ|≤r} ordt⁺·((|ζ|⁴ − r⁴)/(2r²|ζ|⁴))·(Re ζ)² ≤ 0.

    Raises OverflowError where 2r²|ζ|⁴ underflows.
    """
    _check_radius(r)
    total = 0.0
    for mod, s, k in d.side(side)[1]:
        if mod <= r:
            mod4 = mod**4
            total += k * (mod4 - r**4) / _kernel_divisor(2.0 * r**2 * mod4, mod, r) * s.re * s.re
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
