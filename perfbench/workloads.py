"""Workload definitions for the quatnev benchmark.

Every input is a pure function of the workload seed.  A workload is an
ordered list of ops; one op is one CLI invocation through
``quatnev.cli.main`` or one battery of library calls on one input.  Each
op has an untimed oracle that decides whether its outputs are correct and
returns the bytes whose SHA-256 digest is recorded.

The library is reached only through the module objects held by ``Lib``,
looked up at call time, so wrappers installed on module attributes by the
tracer take effect and the untraced run calls the library directly.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("cli-defaults", "jensen-noncommutative", "divisor-sweep")

# CLI commands in README order
COMMANDS = (
    "verify-jensen",
    "profile",
    "fmt-check",
    "mpb-check",
    "arbiter",
    "algebra-suite",
    "selftest",
)

# Passes a run makes at least, whatever --seconds says.  A cli-defaults
# pass takes about 15 s, so it makes two.
MIN_PASSES = {
    "cli-defaults": 2,
    "jensen-noncommutative": 3,
    "divisor-sweep": 3,
}

# Percentile reported as op_tail_s, fixed per workload so that runs of
# different commits compare the same statistic.  Each leaves at least ten
# op samples beyond it at the speed of the commit that introduced this
# benchmark (jensen-noncommutative: at least 3 passes of 12 ops;
# divisor-sweep: about 6 passes of 256 in a 20-second run).  On
# divisor-sweep about 1% of the inputs are three to four times slower than
# the rest of their degree, so p99 sits among them and p95 would sit on
# the cliff before them.  cli-defaults runs only 7 ops per pass, so no
# percentile qualifies there and its tail is the slowest op
# (algebra-suite).
TAIL_PERCENTILE = {
    "cli-defaults": 100.0,
    "jensen-noncommutative": 70.0,
    "divisor-sweep": 99.0,
}

# The reference.py kernel that measures the host for each workload: the
# one whose work is most like the workload's hot layer.
HOST_PROBE = {
    "cli-defaults": reference.sample_kernel,  # Philox sampling, RealPoly stems
    "jensen-noncommutative": reference.sample_kernel,  # sampling, twisted evaluation
    "divisor-sweep": reference.small_kernel,  # the root finder on small arrays
}

_MODULES = ("quat_core", "star_poly", "divisor", "sph_integral", "nevanlinna", "cli")

# distinct per-workload streams, so one seed gives unrelated inputs
_STREAM_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}

JENSEN_OPS = 12
BATTERY_SEED = 0
# recovered spheres must match the planted ones to this relative distance
SPHERE_TOL = 1e-8
DIVISOR_INPUTS = 256


class Lib:
    """The quatnev package and the submodules the benchmark calls."""

    def __init__(self) -> None:
        self.quatnev = importlib.import_module("quatnev")
        for name in _MODULES:
            setattr(self, name, importlib.import_module(f"quatnev.{name}"))

    def modules(self):
        return [self.quatnev] + [getattr(self, name) for name in _MODULES]


def fresh_import(src_dir: str) -> Lib:
    """Import quatnev from ``src_dir`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "quatnev" or m.startswith("quatnev.")]:
        del sys.modules[name]
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    importlib.invalidate_caches()
    lib = Lib()
    origin = os.path.realpath(lib.quatnev.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"quatnev was imported from {origin}, not from {src_dir}")
    return lib


@dataclass
class Op:
    """One timed operation.

    ``execute`` is the timed part and returns a raw result; ``check`` is
    the untimed oracle, returning (ok, artifact bytes, detail).
    """

    op_id: int
    kind: str
    label: str
    execute: Callable[[], object]
    check: Callable[[object], tuple]
    argv: list | None = None  # CLI ops only


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def _cli_op(lib: Lib, op_id: int, command: str, extra: list, out_path: str,
            label: str) -> Op:
    argv = [command, *extra, "--out", out_path]

    def execute() -> CliRun:
        # the CLI prints its human report to stdout; keep it out of the
        # benchmark's own output
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        return CliRun(code, out.getvalue(), err.getvalue())

    def check(run: CliRun):
        try:
            with open(out_path, "rb") as fh:
                artifact = fh.read()
            os.remove(out_path)
        except OSError:
            artifact = b""
        problems = []
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if "✗" in run.stdout:
            problems.append("a gate printed FAIL")
        if not artifact:
            problems.append("no artifact written")
        detail = "; ".join(problems)
        if problems and run.stderr:
            detail += f"; stderr: {run.stderr.strip()[-300:]}"
        return not problems, artifact, detail

    return Op(op_id, command, label, execute, check, argv)


def _cli_defaults(lib: Lib, seed: int, workdir: str) -> list[Op]:
    # the built-in defaults take no input, so the seed changes nothing here
    return [
        _cli_op(lib, k, command, [], os.path.join(workdir, f"{k:03d}-{command}.out"),
                command)
        for k, command in enumerate(COMMANDS)
    ]


# ---------------------------------------------------------------------------
# jensen-noncommutative inputs
# ---------------------------------------------------------------------------


def _quat_rows(rng, count: int) -> list:
    return [[float(x) for x in row] for row in rng.standard_normal((count, 4))]


def _clearance(radius: float, moduli) -> float:
    return min((abs(math.log(radius / m)) for m in moduli), default=math.inf)


def jensen_inputs(lib: Lib, seed: int) -> list[dict]:
    """Configs of the jensen-noncommutative ops, in op order.

    Ops alternate verify-jensen / mpb-check.  Degrees, the rational/
    polynomial split and the scheme follow a fixed schedule so that every
    seed gives the same amount of work; the random draws are the
    quaternion coefficients, the target, the radii and the integrator
    seed.  Radii are the admissible_radii grid points farthest (in log r)
    from every divisor sphere.  A monte_carlo mpb-check covers two radii
    and an antithetic one covers one, so both cost about one verify-jensen.

    The functions and radii of every op come from one fixed battery drawn
    from BATTERY_SEED, because the cost of an op depends on its function
    and the workload's cost must not move with the seed.  The seed draws
    the mpb-check target and integrator seed.  The verify-jensen ops are
    fixed whole: their 3σ gate misses by chance on about 0.3% of random
    inputs, so seeded ones would fail about one run in fifty for no fault
    of the program.
    """
    sp = lib.star_poly
    tag = _STREAM_TAG["jensen-noncommutative"]
    streams = {
        "verify-jensen": np.random.default_rng([BATTERY_SEED, tag, 0]),
        "mpb-check": np.random.default_rng([BATTERY_SEED, tag, 1]),
    }
    seeded = np.random.default_rng([seed, tag, 2])
    configs = []
    for k in range(JENSEN_OPS):
        pair = k // 2
        command = "verify-jensen" if k % 2 == 0 else "mpb-check"
        rng = streams[command]
        degree = 2 + pair % 4
        rational = pair % 2 == 1
        antithetic = command == "mpb-check" and pair in (1, 4)
        num = _quat_rows(rng, degree + 1)
        function = {"num": num, "den": _quat_rows(rng, 3)} if rational else num
        f = sp.LeftPoly(num)
        if rational:
            f = sp.SemiregularRational(f, sp.LeftPoly(function["den"]))
        moduli = [s.modulus() for s, _k in lib.divisor.total_order_divisor(f).entries]
        grid = [float(r) for r in lib.nevanlinna.admissible_radii(f, 0.5, 3.0, 12)]
        ranked = sorted(grid, key=lambda r: -_clearance(r, moduli))
        cfg = {"function": function, "seed": int(rng.integers(0, 2**31 - 1))}
        if command == "verify-jensen":
            cfg["r"] = ranked[0]
        else:  # the run's seed, not the battery, draws these
            cfg["seed"] = int(seeded.integers(0, 2**31 - 1))
            cfg["a"] = _quat_rows(seeded, 1)[0]
            cfg["radii"] = sorted(ranked[: 1 if antithetic else 2])
        if antithetic:
            cfg["scheme"] = "antithetic_pair"
        configs.append({"command": command, "config": cfg})
    return configs


def _jensen_noncommutative(lib: Lib, seed: int, workdir: str) -> list[Op]:
    ops = []
    for k, item in enumerate(jensen_inputs(lib, seed)):
        command, cfg = item["command"], item["config"]
        path = os.path.join(workdir, f"{k:03d}-{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        ops.append(_cli_op(
            lib, k, command, ["--config", path],
            os.path.join(workdir, f"{k:03d}-{command}.out"),
            f"{command} {'rational' if isinstance(cfg['function'], dict) else 'poly'}",
        ))
    return ops


# ---------------------------------------------------------------------------
# divisor-sweep inputs
# ---------------------------------------------------------------------------


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _star_product_of_linears(roots: list[np.ndarray]) -> np.ndarray:
    """Coefficients (lowest first) of (q − α₁) * (q − α₂) * … ."""
    coeffs = np.array([[1.0, 0.0, 0.0, 0.0]])
    for alpha in roots:
        out = np.zeros((coeffs.shape[0] + 1, 4))
        out[1:] = coeffs
        out[:-1] -= _hamilton(coeffs.T, alpha).T
        coeffs = out
    return coeffs


_MIN_SPHERE_GAP = 0.25


def _plant_spheres(rng, count: int, taken: list) -> list:
    """``count`` distinct, well-separated nonreal spheres as (re, im).

    ``taken`` (shared with the other side of a rational) keeps zero and
    pole spheres apart so they cannot cancel.  Repeated and real spheres
    are left out: their symmetrization has multiple roots, which
    total_order_divisor sometimes splits into extra spheres (see
    README.md).
    """
    spheres: list[tuple] = []
    while len(spheres) < count:
        re = float(rng.uniform(-2.0, 2.0))
        im = float(rng.uniform(0.3, 2.0))
        if any(math.hypot(re - t[0], im - t[1]) < _MIN_SPHERE_GAP for t in taken):
            continue
        spheres.append((re, im))
        taken.append((re, im))
    return spheres


def _roots_on(rng, spheres: list) -> list:
    """One quaternion root on each sphere, in a random direction."""
    roots = []
    for re, im in spheres:
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        roots.append(np.concatenate([[re], im * direction]))
    return roots


def divisor_inputs(seed: int) -> list[dict]:
    """Planted-root polynomials and rationals of degree 4–12.

    Degree and the polynomial/rational split follow a fixed schedule, and
    the spheres come from one fixed battery drawn from BATTERY_SEED: the
    root finder works on the symmetrization, which depends only on the
    spheres, so its cost, most of this workload's, is the same for every
    seed.  The seed draws the point of each root on its sphere, the radii
    nudges and the harmonic target.  Rationals carry a degree-2
    denominator.
    """
    battery = np.random.default_rng([BATTERY_SEED, _STREAM_TAG["divisor-sweep"]])
    rng = np.random.default_rng([seed, _STREAM_TAG["divisor-sweep"]])
    items = []
    for i in range(DIVISOR_INPUTS):
        degree = 4 + i % 9
        rational = i % 2 == 1
        taken: list = []
        zeros = _plant_spheres(battery, degree - 2 if rational else degree, taken)
        poles = _plant_spheres(battery, 2, taken) if rational else []
        num_roots, den_roots = _roots_on(rng, zeros), _roots_on(rng, poles)
        moduli = [math.hypot(re, im) for re, im in zeros + poles]
        radii = []
        for r in (0.6, 1.4, 3.2):
            r *= float(rng.uniform(0.9, 1.1))
            while any(abs(r - m) <= 0.02 * r for m in moduli):
                r *= 1.05
            radii.append(r)
        items.append({
            "num": _star_product_of_linears(num_roots),
            "den": _star_product_of_linears(den_roots) if rational else None,
            "planted": [(re, im, 1) for re, im in zeros] + [(re, im, -1) for re, im in poles],
            "radii": radii,
            "target": rng.standard_normal(4) * 0.5,
        })
    return items


@dataclass
class DivisorRun:
    divisor: object
    counting: list
    kernel_sums: list
    harmonic: tuple


def _divisor_op(lib: Lib, op_id: int, item: dict) -> Op:
    sp = lib.star_poly
    num = sp.LeftPoly(item["num"])
    f = sp.SemiregularRational(num, sp.LeftPoly(item["den"])) if item["den"] is not None else num
    target = lib.quat_core.Quaternion(*item["target"])
    radii = item["radii"]

    def execute() -> DivisorRun:
        dv = lib.divisor
        d = dv.total_order_divisor(f)
        counting = [
            (dv.N_integrated(d, side, r), dv.N_via_unintegrated(d, side, r))
            for r in radii for side in ("zero", "pole")
        ]
        kernel_sums = [
            (dv.signed_kernel_sum(d, r, "corrected"), dv.signed_kernel_sum(d, r, "doubled"))
            for r in radii
        ]
        r = radii[0]
        harmonic = (lib.nevanlinna.harmonic_remainder(f, target, r),
                    lib.nevanlinna.harmonic_remainder(f, target, 2.0 * r))
        return DivisorRun(d, counting, kernel_sums, harmonic)

    def check(run: DivisorRun):
        problems = []
        got = sorted((s.re, s.im, k) for s, k in run.divisor.entries)
        want = sorted(item["planted"])
        if run.divisor.origin_order != 0 or len(got) != len(want):
            problems.append(f"recovered {len(got)} spheres, planted {len(want)}")
        else:
            for (gre, gim, gk), (wre, wim, wk) in zip(got, want):
                if gk != wk or math.hypot(gre - wre, gim - wim) > SPHERE_TOL * (1.0 + math.hypot(wre, wim)):
                    problems.append(f"sphere ({gre:.9f}, {gim:.9f}) order {gk} "
                                    f"vs planted ({wre:.9f}, {wim:.9f}) order {wk}")
        for n_int, n_unint in run.counting:
            if abs(n_int - n_unint) > 1e-9:
                problems.append(f"N_integrated {n_int!r} != N_via_unintegrated {n_unint!r}")
        for r, (corrected, doubled) in zip(radii, run.kernel_sums):
            nonreal = sum(k * lib.divisor.jensen_kernel(s, r)
                          for s, k in run.divisor.entries
                          if s.im > 0.0 and s.modulus() < r)
            if abs((doubled - corrected) - nonreal) > 1e-9 * (1.0 + abs(nonreal)):
                problems.append(f"kernel conventions differ by {doubled - corrected!r} at r = {r}")
        h1, h2 = run.harmonic
        if abs(h2 - 4.0 * h1) > 1e-9 * (1.0 + abs(h2)):
            problems.append(f"harmonic remainder does not scale as r²: {h1!r}, {h2!r}")
        payload = json.dumps({
            "divisor": [(s.re.hex(), s.im.hex(), k) for s, k in run.divisor.entries],
            "origin": run.divisor.origin_order,
            "counting": [(a.hex(), b.hex()) for a, b in run.counting],
            "kernel_sums": [(a.hex(), b.hex()) for a, b in run.kernel_sums],
            "harmonic": [h.hex() for h in run.harmonic],
        }).encode()
        return not problems, payload, "; ".join(problems)

    label = f"{'rational' if item['den'] is not None else 'poly'} degree {num.degree}"
    return Op(op_id, "divisor", label, execute, check)


def _divisor_sweep(lib: Lib, seed: int, workdir: str) -> list[Op]:
    return [_divisor_op(lib, i, item) for i, item in enumerate(divisor_inputs(seed))]


_BUILDERS = {
    "cli-defaults": _cli_defaults,
    "jensen-noncommutative": _jensen_noncommutative,
    "divisor-sweep": _divisor_sweep,
}


def build_ops(name: str, lib: Lib, seed: int, workdir: str) -> list[Op]:
    """The op list of workload ``name`` for ``seed``; config files go to workdir."""
    return _BUILDERS[name](lib, seed, workdir)


def warm_up(name: str, lib: Lib, ops: list[Op], workdir: str) -> None:
    """Touch each code path once at small size before anything is timed."""
    if name == "divisor-sweep":
        ops[0].check(ops[0].execute())
        return
    # verify-jensen and mpb-check between them reach every layer the CLI
    # commands use; the others would cost whole seconds even at the
    # smallest sample count the CLI accepts
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    for kind in ("verify-jensen", "mpb-check", "selftest"):
        if kind in first:
            argv = first[kind].argv
            extra = [] if kind == "selftest" else ["--samples", "1000"]
            warm = _cli_op(lib, -1, kind, argv[1:-2] + extra,
                           os.path.join(workdir, "warm-up.out"), "warm-up")
            warm.check(warm.execute())
