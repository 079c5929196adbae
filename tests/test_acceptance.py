"""Acceptance gate: the eight headline criteria, one ✓/✗ line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every closed-form claim is gated at its stated tolerance and
every stochastic claim at the run's own 3·std_error envelope; spread
ceilings for the boundedness criteria are frozen golden values from the
pinned seed.  Criterion 4's nonnegativity clause is a strict expected
failure: the harmonic remainder of q at a real target is −r²/4 < 0, so
a faithful implementation cannot satisfy it (see the README).
"""

import math
import time

import numpy as np
import pytest

from quatnev.quat_core import Quaternion, SliceComplex
from quatnev.star_poly import LeftPoly, RealPoly, SemiregularRational, as_rational, star_mul
from quatnev.divisor import (
    N_integrated,
    N_via_unintegrated,
    SphereDivisor,
    analytic_characterization_check,
    angular_identity_check,
)
from quatnev.sph_integral import IntegratorConfig
from quatnev.nevanlinna import (
    characteristic_algebra_suite,
    counting_arbiter,
    harmonic_remainder,
    mpb_defect,
    verify_fmt,
    verify_jensen,
)

PASS = "✓ PASS"
FAIL = "✗ FAIL"

ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)

CFG = IntegratorConfig(samples=20_000, seed=2026)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {PASS if ok else FAIL} — {detail}")


def _linear(c: Quaternion) -> LeftPoly:
    return LeftPoly([(-c).to_array(), [1, 0, 0, 0]])


# ---------------------------------------------------------------------------
# 1. Canonical linear closure on ∂B₂
# ---------------------------------------------------------------------------


def test_criterion_1_canonical_closure():
    t0 = time.monotonic()
    f = _linear(Quaternion(0.5, 0.7, 0, 0))
    cfg = IntegratorConfig(samples=300_000, seed=2026)
    corrected, doubled = verify_jensen(f, 2.0, cfg)
    elapsed = time.monotonic() - t0

    checks = {
        "lhs": abs(corrected.lhs - (-0.150552546392)) <= 1e-9,
        "harmonic": abs(corrected.harmonic - 0.438276113952) <= 1e-9,
        "kernel": abs(corrected.divisor_sum - 1.266975840904) <= 1e-9,
        "boundary_f": abs(corrected.boundary_f.value - 0.739728)
        <= 3 * corrected.boundary_f.std_error,
        "boundary_fSf": abs(corrected.boundary_fSf.value - 0.616709)
        <= 3 * corrected.boundary_fSf.std_error,
        "corrected_residual": abs(corrected.residual) <= corrected.three_sigma,
        "doubled_residual": abs(doubled.residual - (-1.266976))
        <= doubled.three_sigma + 1e-6,
        "runtime": elapsed < 30.0,
    }
    ok = all(checks.values())
    _verdict(
        1,
        ok,
        f"closed forms to 1e-9, residual {corrected.residual:+.2e} within "
        f"3σ = {corrected.three_sigma:.2e}, factor-2 offset reproduced, "
        f"{elapsed:.1f} s",
    )
    assert ok, f"failed clauses: {[k for k, v in checks.items() if not v]}"


# ---------------------------------------------------------------------------
# 2. Closure battery over random rationals
# ---------------------------------------------------------------------------


def _random_star_factors(rng, deg: int) -> LeftPoly:
    f = LeftPoly.constant(ONE)
    for _ in range(deg):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        c = Quaternion(*(u * rng.uniform(0.6, 1.8)))   # moduli in [0.3, 0.9]·R
        f = star_mul(f, _linear(c))
    return f


def test_criterion_2_closure_battery():
    rng = np.random.default_rng(909)
    cfg = IntegratorConfig(samples=100_000, seed=2026)
    worst = 0.0
    for k in range(20):
        deg_num = 1 + int(rng.integers(0, 3))
        deg_den = int(rng.integers(0, 3))
        num = _random_star_factors(rng, deg_num)
        if deg_den == 0:
            f = as_rational(num)
        else:
            f = SemiregularRational(num, _random_star_factors(rng, deg_den))
        rep, _ = verify_jensen(f, 2.0, cfg)
        ratio = abs(rep.residual) / rep.three_sigma
        worst = max(worst, ratio)
        assert ratio <= 1.0, (
            f"case {k} (num degree {deg_num}, den degree {deg_den}): residual "
            f"{rep.residual:+.3e} at {ratio:.2f}× the 3σ envelope {rep.three_sigma:.1e}"
        )
    _verdict(2, True, f"20/20 rational closures within 3σ (worst {worst:.2f}×)")


# ---------------------------------------------------------------------------
# 3. Counting identities, Monte-Carlo-free
# ---------------------------------------------------------------------------


def _random_divisor(rng) -> SphereDivisor:
    pairs = []
    for _ in range(int(rng.integers(1, 6))):
        xi = float(rng.uniform(-1.5, 1.5))
        eta = float(rng.uniform(0.0, 1.5))
        if math.hypot(xi, eta) < 0.05:
            xi += 0.2
        ordt = int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1)
        pairs.append((SliceComplex(xi, eta), ordt))
    return SphereDivisor.build(pairs, int(rng.integers(0, 3)))


def test_criterion_3_counting_identities():
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    worst_err, worst_slack = 0.0, 0.0
    for _ in range(100):
        d = _random_divisor(rng)
        moduli = [sphere.modulus() for sphere, _ in d.entries]
        radii = np.sort(rng.uniform(0.1, 3.2, size=20))
        for r in radii:
            if min((abs(r - m) for m in moduli), default=1.0) < 1e-9:
                r += 1e-6
            for side in ("zero", "pole"):
                direct = N_via_unintegrated(d, side, r)
                integrated = N_integrated(d, side, r)
                err = abs(integrated - direct) / (1.0 + abs(direct))
                worst_err = max(worst_err, err)
                e1, e2 = angular_identity_check(d, side, r)
                worst_err = max(worst_err, e1, e2)
                a1, a2, slack = analytic_characterization_check(d, side, r)
                worst_err = max(worst_err, a1, a2)
                worst_slack = min(worst_slack, slack)
    elapsed = time.monotonic() - t0
    ok = worst_err <= 1e-9 and worst_slack >= -1e-12
    _verdict(
        3,
        ok,
        f"100 divisors × 20 radii × both sides: worst identity error "
        f"{worst_err:.2e}, worst inequality slack {worst_slack:+.1e}, {elapsed:.1f} s",
    )
    assert ok, f"worst_err {worst_err}, worst_slack {worst_slack}"


# ---------------------------------------------------------------------------
# 4. Harmonic-remainder oracle (and the nonnegativity clause, honestly red)
# ---------------------------------------------------------------------------


def _draw_oracle_case(rng):
    deg = int(rng.integers(1, 4))
    coeffs = [Quaternion(*rng.standard_normal(4)) for _ in range(deg + 1)]
    while coeffs[-1].norm() < 0.3:
        coeffs[-1] = Quaternion(*rng.standard_normal(4))
    f = LeftPoly([c.to_array() for c in coeffs])
    a = Quaternion(*rng.standard_normal(4))
    while (f(ZERO) - a).norm() < 0.1:
        a = Quaternion(*rng.standard_normal(4))
    r = float(rng.uniform(1.0, 3.0))
    return f, a, r


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


def _oracle_results():
    rng = np.random.default_rng(20260417)
    rows = []
    for _ in range(25):
        f, a, r = _draw_oracle_case(rng)
        closed = harmonic_remainder(f, a, r)
        h = 1e-4 * (1.0 + abs(f(ZERO) - a))
        fd = _fd_laplacian_defect(f - a, r, h)
        rows.append((closed, abs(closed - fd) / max(abs(closed), 1e-12)))
    return rows


def test_criterion_4_fd_oracle():
    rows = _oracle_results()
    worst = max(rel for _, rel in rows)
    ok = worst <= 1e-5
    _verdict(4, ok, f"25/25 closed forms match the FD Laplacian (worst rel {worst:.2e})")
    assert ok, f"worst relative error {worst}"


@pytest.mark.xfail(
    strict=True,
    reason="the harmonic remainder is genuinely signed: H(q, 1, r) = −r²/4 < 0, "
    "so the nonnegativity clause cannot hold for a faithful implementation",
)
def test_criterion_4_nonnegativity_clause():
    rows = _oracle_results()
    smallest = min(closed for closed, _ in rows)
    negative = sum(1 for closed, _ in rows if closed < -1e-9)
    _verdict(
        4,
        smallest >= -1e-9,
        f"{negative}/25 oracle cases have H < 0 (smallest {smallest:+.3e}); "
        "the mean-value defect of log|g^s| carries both signs",
    )
    assert smallest >= -1e-9, (
        f"H is a signed quantity: {negative} of 25 cases are negative "
        f"(smallest {smallest:+.3e}); see H(q, 1, r) = −r²/4"
    )


# ---------------------------------------------------------------------------
# 5. Characteristic algebra
# ---------------------------------------------------------------------------


def test_criterion_5_characteristic_algebra():
    f = star_mul(_linear(Quaternion(0, 1, 0, 0)), _linear(Quaternion(0, 0, 1, 0)))
    g = RealPoly([0.74, -1.0, 1.0])
    rows = {
        r["identity"]: r
        for r in characteristic_algebra_suite(
            f, g, ZERO, ONE, None, (2.0, 5.0, 12.0, 31.0), CFG
        )
    }
    checks = {
        "power_2_exact": rows["star_power_2"]["value"] <= 1e-9,
        "power_3_exact": rows["star_power_3"]["value"] <= 1e-9,
        "star_subadditive": rows["star_subadditivity"]["pass"],
        "plus_subadditive": rows["plus_subadditivity"]["pass"],
        "half_symmetrization": rows["half_symmetrization_chain"]["pass"],
        "sandwich_lower_all_radii": rows["sandwich_lower"]["value"] >= -1e-9,
        "sandwich_upper_all_radii": rows["sandwich_upper"]["pass"],
    }
    ok = all(checks.values())
    _verdict(
        5,
        ok,
        "star powers exact to 1e-9, subadditivity and sandwich slacks within "
        f"gates, conjugation chain residual {rows['half_symmetrization_chain']['value']:.2e}",
    )
    assert ok, f"failed clauses: {[k for k, v in checks.items() if not v]}"


# ---------------------------------------------------------------------------
# 6. Mean-proximity-balance diagnostics
# ---------------------------------------------------------------------------


def test_criterion_6_mpb_diagnostics():
    anti = IntegratorConfig(samples=8_000, seed=5, scheme="antithetic_pair")
    f_sym = RealPoly([1.0, 0.0, 1.0])
    bitwise = all(
        m.value == 0.0 and m.std_error == 0.0
        for m in mpb_defect(f_sym, None, np.geomspace(0.5, 50.0, 10), anti)
    )

    f_dom = LeftPoly([[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])   # q² + q·i
    cfg = IntegratorConfig(samples=50_000, seed=2026, scheme="antithetic_pair")
    defects, significant = [], True
    for m in mpb_defect(f_dom, ONE, (10.0, 100.0, 1000.0), cfg):
        significant = significant and abs(m.value) > m.three_sigma
        defects.append(abs(m.value))
    decreasing = defects[0] > defects[1] > defects[2]

    ok = bitwise and significant and decreasing
    _verdict(
        6,
        ok,
        "slice-preserving defect bitwise 0 at 10 radii; dominating-index defect "
        f"{defects[0]:.1e} → {defects[1]:.1e} → {defects[2]:.1e} (each beyond 3σ)",
    )
    assert ok, f"bitwise={bitwise} significant={significant} defects={defects}"


# ---------------------------------------------------------------------------
# 7. Bounded residual of the exact-identity form
# ---------------------------------------------------------------------------

# frozen golden spread ceilings at samples=20000, seed=2026 on geomspace(10, 1000, 12)
FMT_FIXTURES = (
    (RealPoly([1.0, 0.0, 1.0]), ONE, 5.1e-3),
    (RealPoly([1.0, 0.0, 1.0]), Quaternion(-2, 0, 0, 0), 1.02e-2),
    (RealPoly([0.25, -1.0, 1.0]), ONE, 5.1e-3),
    (RealPoly([0.25, -1.0, 1.0]), Quaternion(-1, 0, 0, 0), 5.1e-3),
    (RealPoly([0.0, -1.0, 0.0, 1.0]), ONE, 7e-6),
    (RealPoly([0.0, -1.0, 0.0, 1.0]), Quaternion(2, 0, 0, 0), 7e-6),
)


def test_criterion_7_fmt_boundedness():
    radii = tuple(np.geomspace(10.0, 1000.0, 12))
    worst_slope, worst_ratio = 0.0, 0.0
    for f, a, ceiling in FMT_FIXTURES:
        s = verify_fmt(f, a, radii, CFG, form=3)["summary"]
        worst_slope = max(worst_slope, abs(s["slope"]))
        worst_ratio = max(worst_ratio, s["spread"] / ceiling)
        assert abs(s["slope"]) <= 0.01, f"{f!r} at {a}: slope {s['slope']}"
        assert s["spread"] <= ceiling, (
            f"{f!r} at {a}: spread {s['spread']:.3e} beyond frozen ceiling {ceiling:.1e}"
        )
    _verdict(
        7,
        True,
        f"6/6 fixtures flat over [10, 1000] (worst |slope| {worst_slope:.1e}, "
        f"worst spread at {worst_ratio:.2f}× its golden ceiling)",
    )


# ---------------------------------------------------------------------------
# 8. Counting-convention arbiter
# ---------------------------------------------------------------------------


def test_criterion_8_counting_arbiter():
    rep = counting_arbiter(RealPoly([1.0, 0.0, 1.0]), 2.0, CFG)
    res = dict(rep.residuals)

    # the winning convention must also close the real-sphere double zero and
    # a generic point zero with the same counting rule
    double_real, _ = verify_jensen(RealPoly([0.25, -1.0, 1.0]), 2.0, CFG)
    generic, _ = verify_jensen(_linear(Quaternion(0.5, 0.7, 0, 0)), 2.0, CFG)

    checks = {
        "winner": rep.best_order == 2,
        "residual_1_frozen": abs(res[1] - 1.63038273237) <= 1e-9,
        "residual_2_frozen": abs(res[2] - (-0.00026444818739)) <= 1e-9,
        "winner_closes": abs(res[2]) <= rep.three_sigma,
        "loser_misses": abs(res[1]) > 100 * rep.three_sigma,
        "real_double_closes": abs(double_real.residual) <= double_real.three_sigma,
        "point_zero_closes": abs(generic.residual) <= generic.three_sigma,
    }
    ok = all(checks.values())
    _verdict(
        8,
        ok,
        f"full symmetrized multiplicity wins (c=1: {res[1]:+.6e}, "
        f"c=2: {res[2]:+.6e}); the same rule closes (q−½)² and q−(0.5+0.7i)",
    )
    assert ok, f"failed clauses: {[k for k, v in checks.items() if not v]}"
