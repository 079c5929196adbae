"""Config-driven experiment runner for quaternionic Nevanlinna verification.

Subcommands
-----------
verify-jensen   Close the sphere-corrected Jensen formula on one boundary
                sphere and print the full readout table (both kernel
                conventions, closed from one Monte-Carlo pass).
profile         Tabulate the Nevanlinna functions N, m, H, T, A of one
                (function, target) pair over a radius grid.
fmt-check       Per-radius residuals of one First Main Theorem form plus
                the bounded-gap summary (spread, slope, envelope fit).
mpb-check       Mean-proximity-balance defect over a radius grid.
arbiter         Decide whether a single zero sphere has total order 1 or 2
                by Jensen closure.
algebra-suite   Battery of characteristic-function identities; its
                transform A, B, C, D is required (default Φ(q) =
                (q + 1)*(q − 1)^{-*}) and feeds the fractional-linear row.
selftest        Monte-Carlo-free exact identity suite (gate 1e-9).

All experiment inputs come from a JSON config file (--config); the
command-line flags --seed, --samples, --out, --format override the
matching config keys, and a key the command does not read is a config
error.  Quaternions are written as [w, x, y, z] arrays; the point at
infinity as the string "inf".  Polynomials are
coefficient lists [[w,x,y,z], ...] (degree-ascending); rationals are
{"num": [...], "den": [...]}.  Every run is fully seeded — identical
config and seed produce bitwise-identical artifacts.  With --out the
artifact goes to that file and the human report to stdout; without it the
artifact is alone on stdout and the report goes to stderr, for every
command, selftest included.

Exit status: 0 all asserted gates pass; 1 a gate failed; 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .quat_core import Quaternion, SliceComplex
from .star_poly import (
    GL2H,
    LeftPoly,
    SemiregularRational,
    corollary_decomposition_check,
    star_eval_identity_check,
    star_power,
)
from .divisor import (
    SphereDivisor,
    analytic_characterization_check,
    angular_identity_check,
    jensen_kernel,
    signed_kernel_sum,
    total_order_divisor,
)
from .sph_integral import IntegratorConfig
from .nevanlinna import (
    NevanlinnaProfile,
    characteristic_algebra_suite,
    counting_arbiter,
    harmonic_remainder,
    mpb_defect,
    verify_fmt,
    verify_jensen,
)

PASS = "✓ PASS"
FAIL = "✗ FAIL"

class ConfigError(ValueError):
    """The experiment configuration is invalid."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _finite(v, where: str) -> float:
    """A config number as a float: booleans, non-numbers and non-finite numbers are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where}: {v!r} is not a finite number")
    return float(v)


def _parse_target(v, where: str = "a"):
    """Quaternion target from [w,x,y,z] / number / 'inf' (None = infinity)."""
    if v is None or (isinstance(v, str) and v.strip().lower() in ("inf", "infinity")):
        return None
    if isinstance(v, (list, tuple)) and len(v) == 4:
        return Quaternion(*(_finite(c, where) for c in v))
    if isinstance(v, (int, float)):  # a boolean too, which _finite refuses
        return Quaternion(_finite(v, where), 0.0, 0.0, 0.0)
    raise ConfigError(
        f"{where} must be [w,x,y,z], a real number, or \"inf\"; got {v!r}"
    )


def _parse_quat(v, where: str) -> Quaternion:
    q = _parse_target(v, where)
    if q is None:
        raise ConfigError(f"{where} must be finite, got \"inf\"")
    return q


def _parse_function(data, where: str = "function"):
    """Polynomial (coefficient rows) or rational ({num, den}) from JSON."""
    if isinstance(data, dict):
        if "num" not in data or "den" not in data:
            raise ConfigError(f"{where}: rational needs 'num' and 'den' keys")
        if not (isinstance(data["num"], list) and isinstance(data["den"], list)):
            raise ConfigError(f"{where}: 'num' and 'den' must be coefficient lists")
        try:
            return SemiregularRational(
                _parse_function(data["num"], where + ".num"),
                _parse_function(data["den"], where + ".den"),
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(data, list):
        rows = [row if isinstance(row, (list, tuple)) else (row, 0, 0, 0) for row in data]
        if any(len(row) != 4 for row in rows):
            raise ConfigError(f"{where}: coefficient rows must have 4 entries")
        return LeftPoly([[_finite(c, where) for c in row] for row in rows])
    raise ConfigError(
        f"{where} must be a coefficient list or a num/den object, got {data!r}"
    )


def _parse_transform(data) -> GL2H:
    if not isinstance(data, dict) or set("ABCD") - set(data):
        raise ConfigError("transform needs quaternion entries A, B, C, D")
    return GL2H(*(_parse_quat(data[k], f"transform.{k}") for k in "ABCD"))


def _parse_form(v) -> int:
    form = _finite(v, "form")
    if form not in (1, 2, 3):
        raise ConfigError(f"form must be 1, 2, or 3, got {v!r}")
    return int(form)


def _parse_radii(cfg_map) -> tuple:
    if "radii" in cfg_map and cfg_map["radii"] is not None:
        radii = cfg_map["radii"]
        if not isinstance(radii, (list, tuple)) or not radii:
            raise ConfigError("radii must be a nonempty list")
        radii = tuple(_finite(r, "radii") for r in radii)
    elif "r" in cfg_map and cfg_map["r"] is not None:
        radii = (_finite(cfg_map["r"], "r"),)
    else:
        raise ConfigError("config needs 'r' or 'radii'")
    if not all(r > 0 for r in radii):
        raise ConfigError(f"radii must be positive, got {list(radii)!r}")
    if any(lo >= hi for lo, hi in zip(radii, radii[1:])):
        raise ConfigError(f"radii must be sorted strictly ascending, got {list(radii)!r}")
    return radii


# the parser of each input key a command may read
_PARSERS = {
    "function": _parse_function,
    "a": _parse_target,
    "g": lambda v: _parse_function(v, "g"),
    "b": lambda v: _parse_target(v, "b"),
    "transform": _parse_transform,
    "form": _parse_form,
}

# the keys every command reads: its integrator's fields and its output
_INTEGRATOR_KEYS = frozenset(field.name for field in fields(IntegratorConfig))
_COMMON_KEYS = _INTEGRATOR_KEYS | {"command", "out", "format"}


@dataclass
class ExperimentSpec:
    """One fully-resolved experiment: command, inputs, integrator, output.

    ``inputs`` maps each input key the command reads (function, a, g, b,
    transform, form) to its parsed value.
    """

    command: str
    inputs: dict
    radii: tuple
    integrator: IntegratorConfig
    out: str | None = None
    format: str = "csv"

    @property
    def function(self):
        return self.inputs["function"]

    @property
    def a(self) -> Quaternion | None:
        return self.inputs["a"]

    @property
    def r(self) -> float:
        return self.radii[0]


def build_spec(command: str, args) -> ExperimentSpec:
    """Merge defaults ← config file ← flags into one ExperimentSpec."""
    entry = _COMMANDS[command]
    cfg_map = dict(entry.defaults)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(loaded) - entry.keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "command" in loaded and loaded["command"] != command:
            raise ConfigError(
                f"config is for command {loaded['command']!r}, not {command!r}"
            )
        if "r" in loaded or "radii" in loaded:
            # a default grid would otherwise win over the config's own radius
            cfg_map.pop("r", None)
            cfg_map.pop("radii", None)
        cfg_map.update(loaded)
    for flag in ("seed", "samples", "out", "format"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg_map[flag] = value

    fmt = cfg_map.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        integrator = IntegratorConfig(**{k: cfg_map[k] for k in _INTEGRATOR_KEYS if k in cfg_map})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc

    inputs = {key: parse(cfg_map[key]) for key, parse in _PARSERS.items() if key in cfg_map}
    radii = _parse_radii(cfg_map) if "radii" in entry.keys else ()
    if "r" in entry.defaults and len(radii) > 1:
        raise ConfigError(f"{command} runs at one radius, got {len(radii)} radii")
    return ExperimentSpec(
        command=command,
        inputs=inputs,
        radii=radii,
        integrator=integrator,
        out=cfg_map.get("out"),
        format=fmt,
    )


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


def _emit(spec: ExperimentSpec, csv_text: str, json_obj) -> None:
    """Write the artifact to spec.out, or alone to stdout when no path is given."""
    if spec.format == "json":
        payload = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        payload = csv_text
    if spec.out is None:
        sys.stdout.write(payload)
    else:
        with open(spec.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {spec.format} artifact to {spec.out}")


def _fmt_mean(mean) -> str:
    return f"{mean.value:+.9f} ± {mean.std_error:.2e}"


def _csv_rows(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, bool):
                cells.append(str(x).lower())
            elif isinstance(x, float):
                cells.append(f"{x:.12g}")
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------
#
# Each runner prints its human report and returns (exit status, artifact),
# where the artifact is a (csv_text, json_obj) pair.


def _run_verify_jensen(spec: ExperimentSpec) -> tuple:
    f = spec.function
    r = spec.r
    cfg = spec.integrator
    corrected, factor2 = verify_jensen(f, r, cfg)
    offset = factor2.divisor_sum - corrected.divisor_sum

    print(f"Jensen closure at r = {r:g}  "
          f"(samples={cfg.samples}, seed={cfg.seed}, scheme={cfg.scheme})")
    print(f"  lhs  log|g(0)|              {corrected.lhs:+.12f}")
    print(f"  mean log|f|                 {_fmt_mean(corrected.boundary_f)}")
    print(f"  mean log|f∘S_f|             {_fmt_mean(corrected.boundary_fSf)}")
    print(f"  harmonic remainder          {corrected.harmonic:+.12f}")
    print(f"  divisor sum (corrected)     {corrected.divisor_sum:+.12f}")
    print(f"  divisor sum (factor-2)      {factor2.divisor_sum:+.12f}")
    print(f"  rhs (corrected)             {corrected.rhs:+.12f}")
    print(f"  rhs (factor-2)              {factor2.rhs:+.12f}")
    print(f"  residual (corrected)        {corrected.residual:+.6e}")
    print(f"  residual (factor-2)         {factor2.residual:+.6e}")
    print(f"  factor-2 − corrected        {factor2.residual - corrected.residual:+.6e}"
          f"   (closed-form offset {-offset:+.6e})")
    print(f"  3σ envelope                 {corrected.three_sigma:.6e}")

    # the two conventions share one stream, so their residuals differ by
    # exactly the closed-form kernel-sum offset; the asserted gate is the
    # corrected-convention closure
    gate_ok = corrected.gate_ok
    verdict = PASS if gate_ok else FAIL
    print(f"  {verdict}: corrected residual within 3σ of +0.000000e+00")

    row = (
        r, corrected.lhs,
        corrected.boundary_f.value, corrected.boundary_f.std_error,
        corrected.boundary_fSf.value, corrected.boundary_fSf.std_error,
        corrected.harmonic, corrected.divisor_sum, factor2.divisor_sum,
        corrected.rhs, factor2.rhs, corrected.residual, factor2.residual,
        corrected.three_sigma,
    )
    return 0 if gate_ok else 1, (
        _csv_rows(_COMMANDS[spec.command].columns, [row]),
        {"corrected": corrected.to_json(), "factor2": factor2.to_json()},
    )


def _run_profile(spec: ExperimentSpec) -> tuple:
    profile = NevanlinnaProfile.compute(
        spec.function, spec.a, spec.radii, spec.integrator
    )
    print(f"Nevanlinna profile, a = {profile.a_label}  "
          f"({len(spec.radii)} radii, samples={spec.integrator.samples})")
    print(f"  {'r':>10s} {'N':>14s} {'m':>14s} {'H':>14s} {'T':>14s} {'A':>14s}")
    for r, N, m, _me, H, T, A in profile.rows():
        print(f"  {r:10.4f} {N:14.8f} {m:14.8f} {H:14.8f} {T:14.8f} {A:14.8f}")
    return 0, (_csv_rows(_COMMANDS[spec.command].columns, profile.rows()), profile.to_json())


def _run_fmt_check(spec: ExperimentSpec) -> tuple:
    form = spec.inputs["form"]
    report = verify_fmt(spec.function, spec.a, spec.radii, spec.integrator, form)
    rows = report["rows"]
    summary = report["summary"]
    print(f"First-Main-Theorem form {form} residuals, a = {report['a']}")
    keys = [k for k in rows[0] if k != "r"]
    print("  " + " ".join([f"{'r':>10s}"] + [f"{k:>14s}" for k in keys]))
    for row in rows:
        print("  " + " ".join([f"{row['r']:10.4f}"]
                              + [f"{row[k]:14.6g}" for k in keys]))
    print(f"  spread = {summary['spread']:.6g}   slope = {summary['slope']:+.6g}"
          f"   max|residual| = {summary['max_abs_residual']:.6g}")
    gate_ok = summary["slope_ok"]
    verdicts = [f"slope within ±0.01: {PASS if summary['slope_ok'] else FAIL}"]
    if form == 1:
        print(f"  envelope fit: residual ≈ {summary['coefficient']:+.4f}·envelope "
              f"{summary['offset']:+.4f}")
        gate_ok = gate_ok and summary["coefficient_ok"]
        verdicts.append(
            f"envelope coefficient in [−1, 1]: "
            f"{PASS if summary['coefficient_ok'] else FAIL}"
        )
    for line in verdicts:
        print("  " + line)
    header = ",".join(rows[0].keys())
    return 0 if gate_ok else 1, (
        _csv_rows(header, [tuple(row.values()) for row in rows]), report
    )


def _run_mpb_check(spec: ExperimentSpec) -> tuple:
    print(f"Mean-proximity-balance defect, a = "
          f"{'inf' if spec.a is None else spec.a}")
    rows = []
    defects = mpb_defect(spec.function, spec.a, spec.radii, spec.integrator)
    for r, d in zip(spec.radii, defects):
        rows.append((r, d.value, d.std_error, d.three_sigma))
        print(f"  r = {r:10.4f}   defect = {d.value:+.6e} ± {d.std_error:.2e}")
    return 0, (
        _csv_rows(_COMMANDS[spec.command].columns, rows),
        [
            {"r": r, "defect": v, "std_error": s, "three_sigma": t}
            for r, v, s, t in rows
        ],
    )


def _run_arbiter(spec: ExperimentSpec) -> tuple:
    report = counting_arbiter(spec.function, spec.r, spec.integrator)
    print(f"Counting-convention arbiter at r = {spec.r:g}")
    print(f"  zero sphere ζ = {report.sphere.re:+.6f} + {report.sphere.im:.6f}·I   "
          f"J(ζ, r) = {report.kernel:+.12f}")
    print(f"  lhs = {report.lhs:+.12f}   boundary {_fmt_mean(report.boundary)}   "
          f"harmonic = {report.harmonic:+.12f}")
    for c, res in report.residuals:
        marker = "  ← winner" if c == report.best_order else ""
        print(f"  candidate c = {c}: residual = {res:+.6e}{marker}")
    gate_ok = abs(report.residual(report.best_order)) <= report.three_sigma
    print(f"  {PASS if gate_ok else FAIL}: best order c = {report.best_order} "
          f"closes the formula within 3σ = {report.three_sigma:.2e}")
    return 0 if gate_ok else 1, (
        _csv_rows(_COMMANDS[spec.command].columns, list(report.residuals)),
        report.to_json(),
    )


def _run_algebra_suite(spec: ExperimentSpec) -> tuple:
    rows = characteristic_algebra_suite(
        spec.function,
        spec.inputs["g"],
        spec.a,
        spec.inputs["b"],
        spec.inputs["transform"],
        spec.radii,
        spec.integrator,
    )
    print(f"Characteristic algebra suite over {len(spec.radii)} radii")
    all_ok = True
    csv_rows = []
    for row in rows:
        if row["kind"] == "o1":
            print(f"  {row['identity']:28s} spread = {row['spread']:.6g}   "
                  f"slope = {row['slope']:+.6g}   "
                  f"(bounded-gap report, |slope| ≤ 0.01: "
                  f"{'yes' if row['slope_ok'] else 'no'})")
            csv_rows.append((row["identity"], row["kind"], "", "", "",
                             row["spread"], row["slope"]))
        else:
            ok = row["pass"]
            all_ok = all_ok and ok
            print(f"  {row['identity']:28s} value = {row['value']:+.6e}   "
                  f"gate = {row['gate']:+.2e}   {PASS if ok else FAIL}")
            csv_rows.append((row["identity"], row["kind"], row["value"],
                             row["gate"], ok, "", ""))
    return 0 if all_ok else 1, (
        _csv_rows(_COMMANDS[spec.command].columns, csv_rows), rows
    )


def _selftest_checks():
    """(name, residual, gate) triples for the exact, Monte-Carlo-free suite."""
    rng = np.random.default_rng(20260201)
    checks = []

    def rand_quat(scale=1.0):
        return Quaternion(*(scale * rng.standard_normal(4)))

    # quaternion algebra: multiplicativity of the norm, inverse identity
    worst = 0.0
    for _ in range(50):
        p, q = rand_quat(), rand_quat()
        worst = max(worst, abs((p * q).norm() - p.norm() * q.norm()))
        if q.norm() > 1e-3:
            worst = max(worst, ((q * q.inverse()) - Quaternion(1.0)).norm())
    checks.append(("quaternion norm/inverse algebra", worst, 1e-9))

    # *-product evaluation identity at random points
    worst = 0.0
    for _ in range(20):
        f = LeftPoly([rand_quat().to_array() for _ in range(4)])
        g = LeftPoly([rand_quat().to_array() for _ in range(3)])
        worst = max(worst, star_eval_identity_check(f, g, rand_quat(2.0)))
    checks.append(("star-product evaluation identity", worst, 1e-9))

    # spherical value/derivative decomposition
    worst = 0.0
    for _ in range(20):
        f = LeftPoly([rand_quat().to_array() for _ in range(4)])
        worst = max(worst, corollary_decomposition_check(f, rand_quat(2.0)))
    checks.append(("spherical decomposition identity", worst, 1e-9))

    # power scaling of the symmetrization: (f^{2*})^s = (f^s)²
    worst = 0.0
    for _ in range(10):
        f = LeftPoly([rand_quat().to_array() for _ in range(3)])
        lhs = star_power(f, 2).symmetrize()
        rhs = f.symmetrize() * f.symmetrize()
        worst = max(worst, 0.0 if lhs.equals(rhs, 1e-9 * max(f.coeff_scale(), 1.0) ** 4)
                    else math.inf)
    checks.append(("symmetrization of star powers", worst, 1e-9))

    # harmonic remainder, hand-derived value: (r²/4)·0.24/0.5476 at r = 2
    H = harmonic_remainder(
        LeftPoly.identity(), Quaternion(0.5, 0.7, 0.0, 0.0), 2.0
    )
    checks.append(
        ("harmonic remainder closed form", abs(H - 0.24 / 0.5476), 1e-10)
    )

    # H(f, a, R) = −(R²/4)·Σ ord·Re(ζ⁻²) over the divisor of f − a, as a
    # fraction of Σ|terms|: a quadratic, a rational with a quaternion
    # denominator at a = 0, and that rational at a ≠ 0
    quadratic = LeftPoly([[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]])
    rational = SemiregularRational(LeftPoly([[1.0, 0.2, 0, 0], [1.0, 0, 0, 0]]),
                                   LeftPoly([[0.25, 0, 0.1, 0.3], [1.0, 0, 0, 0]]))
    worst = 0.0
    for f, a, R in ((quadratic, Quaternion(), 1.7), (rational, Quaternion(), 2.5),
                    (rational, Quaternion(0.5, 0.1, 0.0, 0.0), 3.0)):
        terms = [(R * R / 4.0) * k * (complex(zeta.re, zeta.im) ** -2).real
                 for zeta, k in total_order_divisor(f - a).entries]
        H = harmonic_remainder(f, a, R)
        worst = max(worst, abs(H + sum(terms)) / sum(abs(t) for t in terms))
    checks.append(("harmonic remainder from the divisor", worst, 1e-12))

    # Jensen kernel: golden value and the J(ζ, |ζ|) = 0 normalization
    J = jensen_kernel(SliceComplex(0.5, 0.7), 2.0)
    worst = abs(J - 1.266975840904)
    for zeta in (SliceComplex(0.5, 0.7), SliceComplex(-1.2, 0.4)):
        worst = max(worst, abs(jensen_kernel(zeta, zeta.modulus())))
    checks.append(("Jensen kernel golden + normalization", worst, 1e-9))

    # counting identities on random signed divisors
    worst_eq = 0.0
    worst_slack = 0.0
    for _ in range(20):
        n_spheres = int(rng.integers(1, 5))
        pairs = []
        for _ in range(n_spheres):
            re = float(rng.uniform(-2.0, 2.0))
            im = float(rng.uniform(0.0, 2.0))
            if math.hypot(re, im) < 1e-3:
                re += 0.5
            order = int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1)
            pairs.append((SliceComplex(re, im), order))
        d = SphereDivisor.build(pairs, origin_order=int(rng.integers(-2, 3)))
        for r in (0.9, 1.7, 3.1):
            for side in ("zero", "pole"):
                e1, e2, slack = analytic_characterization_check(d, side, r)
                a1, a2 = angular_identity_check(d, side, r)
                worst_eq = max(worst_eq, e1, e2, a1, a2)
                worst_slack = min(worst_slack, slack)
    checks.append(("counting integral representations", worst_eq, 1e-9))
    checks.append(("counting lower-bound slack ≥ 0", -worst_slack, 1e-12))

    # kernel-sum conventions agree on real spheres
    d_real = SphereDivisor.build([(SliceComplex(0.5, 0.0), 2)])
    gap = abs(
        signed_kernel_sum(d_real, 2.0, "corrected")
        - signed_kernel_sum(d_real, 2.0, "doubled")
    )
    checks.append(("kernel conventions agree on real spheres", gap, 1e-12))

    # canonical linear fixture: lhs closed form
    f = LeftPoly.identity() - LeftPoly.constant(Quaternion(0.5, 0.7, 0.0, 0.0))
    lhs = math.log(f(Quaternion()).norm())
    checks.append(
        ("canonical lhs log|f(0)|", abs(lhs - (-0.150552546392)), 1e-9)
    )
    return checks


def _run_selftest(spec: ExperimentSpec) -> tuple:
    print("Exact identity selftest (Monte-Carlo-free)")
    rows = []
    all_ok = True
    for name, residual, gate in _selftest_checks():
        ok = residual <= gate
        all_ok = all_ok and ok
        rows.append((name, residual, gate, ok))
        print(f"  {name:40s} residual = {residual:.3e}  gate = {gate:.0e}  "
              f"{PASS if ok else FAIL}")
    return 0 if all_ok else 1, (
        _csv_rows(_COMMANDS[spec.command].columns, rows),
        [
            {"check": n, "residual": v, "gate": g, "passed": ok}
            for n, v, g, ok in rows
        ],
    )


@dataclass(frozen=True)
class _Command:
    """One subcommand: its runner, its built-in config and its CSV columns."""

    runner: Callable[[ExperimentSpec], tuple]
    defaults: dict
    columns: str

    @property
    def keys(self) -> frozenset:
        """The config keys the command reads; a radius key brings the other."""
        keys = _COMMON_KEYS | set(self.defaults)
        if keys & {"r", "radii"}:
            keys |= {"r", "radii"}
        return keys


# q² + 1, the slice-preserving default function of five commands
_QUADRATIC = [[1.0, 0, 0, 0], [0.0, 0, 0, 0], [1.0, 0, 0, 0]]

_COMMANDS = {
    "verify-jensen": _Command(
        _run_verify_jensen,
        # the canonical linear closure: f = q − (0.5 + 0.7i) on ∂B₂
        {"function": [[-0.5, -0.7, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], "r": 2.0},
        "radius,lhs,boundary_f,boundary_f_std_error,boundary_fSf,"
        "boundary_fSf_std_error,harmonic,divisor_sum_corrected,"
        "divisor_sum_factor2,rhs_corrected,rhs_factor2,residual_corrected,"
        "residual_factor2,three_sigma",
    ),
    "profile": _Command(
        _run_profile,
        {"function": _QUADRATIC, "a": [1.0, 0.0, 0.0, 0.0],
         "radii": list(np.geomspace(2.0, 50.0, 12))},
        ",".join(NevanlinnaProfile.CSV_COLUMNS),
    ),
    "fmt-check": _Command(
        _run_fmt_check,
        {"function": _QUADRATIC, "a": [1.0, 0.0, 0.0, 0.0], "form": 3,
         # start the grid on the bounded-gap plateau: the small-radius
         # transient of the residual would dominate a best-fit slope
         "radii": list(np.geomspace(10.0, 1000.0, 12))},
        "form-dependent: see the printed rows (form 3: "
        "r,N,m,m_std_error,H,T_infinity,residual,three_sigma)",
    ),
    "mpb-check": _Command(
        _run_mpb_check,
        {"function": _QUADRATIC, "a": "inf", "radii": list(np.geomspace(2.0, 50.0, 10))},
        "r,defect,std_error,three_sigma",
    ),
    "arbiter": _Command(
        _run_arbiter, {"function": _QUADRATIC, "r": 2.0}, "candidate,residual",
    ),
    "algebra-suite": _Command(
        _run_algebra_suite,
        {"function": _QUADRATIC,
         "g": [[0.74, 0, 0, 0], [-1.0, 0, 0, 0], [1.0, 0, 0, 0]],
         "a": [0.0, 0.0, 0.0, 0.0],
         "b": [1.0, 0.0, 0.0, 0.0],
         "transform": {"A": [1.0, 0, 0, 0], "B": [1.0, 0, 0, 0],
                       "C": [1.0, 0, 0, 0], "D": [-1.0, 0, 0, 0]},
         "radii": [2.0, 5.0, 12.0, 31.0]},
        "identity,kind,value,gate,passed,spread,slope",
    ),
    "selftest": _Command(_run_selftest, {}, "check,residual,gate,passed"),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatnev",
        description="Quaternionic Nevanlinna verification experiments.",
        epilog="Every number with a closed form (J, N, H, divisor sums) is "
        "computed without Monte Carlo; identical config + seed gives "
        "bitwise-identical artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, entry in _COMMANDS.items():
        p = sub.add_parser(
            command,
            help=f"run the {command} experiment",
            description=f"{command} experiment.",
            epilog=f"CSV columns: {entry.columns}",
        )
        p.add_argument("--config", help="JSON config file (flags override keys)")
        p.add_argument("--seed", type=int, help="integrator seed (never wall-clock)")
        p.add_argument("--samples", type=int, help="accepted Monte-Carlo samples")
        p.add_argument("--out", help="artifact path (default: print to stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="artifact format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build_spec(args.command, args)
        # with no --out the artifact is alone on stdout, so the human report
        # goes to stderr
        with contextlib.redirect_stdout(sys.stderr if spec.out is None else sys.stdout):
            code, artifact = _COMMANDS[spec.command].runner(spec)
        _emit(spec, *artifact)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
