"""quatnev benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-defaults --seed 1 --seconds 20 --trace 0

One client runs the workload's ops one after another (a closed loop, no
threads of its own), in whole passes over the op list, until --seconds
have passed and at least workloads.MIN_PASSES passes are done.
Throughout, a timer signal times the workload's reference kernel
(reference.py) every 0.25 s, and every time metric is in reference
seconds: the wall time, less the probes, divided by how much slower than
nominal the host ran the kernel meanwhile.  The raw wall times are
reported next to them.  Every op is checked by its oracle and every pass
must reproduce the first pass's artifacts byte for byte.  With --trace 0
the last line of stdout is the result with the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and the result carries
the per-layer metrics.  The full report, and with
--trace 1 the spans, are written under .perfbench_out/.  Exit status: 0
when every op passed its oracle, 1 when one failed, 2 when the benchmark
could not run (for example when src/ is missing).
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before NumPy loads them: the benchmark is
# one closed-loop client and must not compete with itself for cores.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 9

# name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "distinct_keys": "count", "points": "count",
                   "passes": "count", "chunks": "count", "repeat_passes": "count",
                   "accepted": "count", "rejected": "count", "degree_sum": "count",
                   "artifact_bytes": "bytes", "reuse_frac": "ratio",
                   "accept_frac": "ratio", "overhead_frac": "ratio", "self_s": "s"}
REPORT_ONLY_UNITS = {"failed_op_frac": "ratio", "op_tail_percentile": "%",
                     "op_samples": "count", "op_samples_beyond_tail": "count",
                     "passes": "count", "samples_per_s": "1/s",
                     "host_slowdown": "ratio"}  # cmd.* and raw.*: s


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


class Pass:
    """Op latencies, host slowdown and oracle outcomes of one pass.

    ``raw`` holds wall-clock latencies, less the probes that ran inside
    them; ``latencies`` the same in reference seconds, each divided by the
    host slowdown the probes measured while the op ran.
    """

    def __init__(self) -> None:
        self.raw: list = []
        self.latencies: list = []
        self.slowdowns: list = []
        self.outcomes: list = []  # (ok, sha256 hex, artifact bytes, detail)
        self.probe_s = 0.0  # probe time inside the ops

    @property
    def wall(self) -> float:
        """Time of the pass's ops, in reference seconds."""
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_pass(ops, clock, tracer=None) -> Pass:
    result = Pass()
    windows = []
    for op in ops:
        span = None
        if tracer is not None:
            tracer.op_id = op.op_id
            span = tracer.begin(tr.OP_SPAN)
        spent = clock.spent
        t0 = time.perf_counter()
        try:
            raw, error = op.execute(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        probes = clock.spent - spent
        result.raw.append(t1 - t0 - probes)
        result.probe_s += probes
        windows.append((t0, t1))
        if span is not None:
            tracer.end(span)
            tracer.op_id = -1
        if error is None:
            try:
                ok, artifact, detail = op.check(raw)
            except Exception as exc:
                ok, artifact, detail = False, b"", f"oracle raised {type(exc).__name__}: {exc}"
        else:
            ok, artifact, detail = False, b"", error
        result.outcomes.append((ok, hashlib.sha256(artifact).hexdigest(), len(artifact), detail))
    clock.tick()  # so that the last op has a probe after it
    for t, window in zip(result.raw, windows):
        result.slowdowns.append(clock.slowdown(*window))
        result.latencies.append(t / result.slowdowns[-1])
    return result


def setup(name: str, seed: int, workdir: str, clock):
    """Import, generate inputs and warm up, SETUP_REPEATS times; the last set is used.

    Returns the library, the ops, and the set-up times in reference
    seconds and in wall seconds.
    """
    raw, windows = [], []
    for _ in range(SETUP_REPEATS):
        spent = clock.spent
        t0 = time.perf_counter()
        lib = wl.fresh_import(str(ROOT / "src"))
        ops = wl.build_ops(name, lib, seed, workdir)
        wl.warm_up(name, lib, ops, workdir)
        t1 = time.perf_counter()
        raw.append(t1 - t0 - (clock.spent - spent))
        windows.append((t0, t1))
    clock.tick()
    times = [t / clock.slowdown(*window) for t, window in zip(raw, windows)]
    return lib, ops, times, raw


def measure(lib, ops, seconds: float, trace: bool, clock, min_passes: int):
    """Untraced passes (alternating with traced ones when ``trace``)."""
    untraced, traced, missing = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tr.installed_wrappers(lib):
            raise RuntimeError("a tracing wrapper is still installed in the untraced run")
        untraced.append(run_pass(ops, clock))
        if trace:
            tracer = tr.Tracer()
            with tr.installed(lib, tracer) as missing:
                traced.append((run_pass(ops, clock, tracer), tracer))
        done = len(untraced) >= (1 if trace else min_passes)
        if done and time.perf_counter() >= deadline:
            return untraced, traced, missing


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _times(name: str, setup_times, untraced, field: str) -> dict:
    latencies = [t for p in untraced for t in getattr(p, field)]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(sum(getattr(p, field)) for p in untraced),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": float(np.percentile(latencies, wl.TAIL_PERCENTILE[name])),
    }


def end_to_end(name: str, setup_times, untraced) -> dict:
    """Gated metrics; the times are in reference seconds."""
    return dict(
        _times(name, setup_times, untraced, "latencies"),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def report_only(name: str, ops, untraced, tail: float, failed: int, attempted: int,
                raw_setup_times) -> dict:
    """End-to-end figures that are not gated: they are missing or zero on
    some workloads (samples_per_s needs the traced counts), or they are
    the wall-clock times behind the gated reference-second ones."""
    latencies = [t for p in untraced for t in p.latencies]
    raw = _times(name, raw_setup_times, untraced, "raw")
    out = {
        "failed_op_frac": failed / attempted,
        "op_tail_percentile": wl.TAIL_PERCENTILE[name],
        "op_samples": len(latencies),
        "op_samples_beyond_tail": sum(1 for t in latencies if t > tail),
        "passes": len(untraced),
        "host_slowdown": statistics.median(x for p in untraced for x in p.slowdowns),
        **{f"raw.{key}": value for key, value in raw.items()},
    }
    if name == "cli-defaults":
        for k, op in enumerate(ops):
            out[f"cmd.{op.kind}_s"] = statistics.median(p.latencies[k] for p in untraced)
    return out


def per_layer(ops, traced, untraced):
    """Median self times and exact counts over the traced passes.

    Self times are in reference seconds: each traced pass's spans, less
    their share of probe time, are divided by that pass's median host
    slowdown.
    """
    per_pass = []
    worst_gap = 0.0
    for p, tracer in traced:
        metrics, checks = tr.layer_metrics(tracer.spans)
        # spans include the probes that ran inside them; take those out
        # in proportion, then scale to reference seconds
        scale = p.raw_wall / (p.raw_wall + p.probe_s) / statistics.median(p.slowdowns)
        for key in metrics:
            if key.endswith("_s"):
                metrics[key] *= scale
        metrics["cli.artifact_bytes"] = sum(
            o[2] for op, o in zip(ops, p.outcomes) if op.kind in wl.COMMANDS)
        per_pass.append(metrics)
        for wall, self_sum in checks.values():
            worst_gap = max(worst_gap, abs(wall - self_sum))
    counts_repeat = True
    merged = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            counts_repeat &= all(v == values[0] for v in values)
    traced_wall = statistics.median(p.wall for p, _t in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    merged["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    shares = {
        key[: -len(".self_s")]: merged[key] / traced_wall
        for key in merged if key.endswith(".self_s")
    }
    checks = {
        "counts_repeat_across_traced_passes": counts_repeat,
        "self_time_sum_max_gap_s": worst_gap,
        "traced_passes": len(traced),
    }
    return merged, shares, checks


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(lib, seed: int) -> dict:
    return {
        "seed": seed,
        "quatnev_version": lib.quatnev.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quatnev benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        out_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir, \
                ref.HostClock(wl.HOST_PROBE[args.workload]) as clock:
            lib, ops, setup_times, raw_setup_times = setup(args.workload, args.seed, workdir, clock)
            untraced, traced, missing = measure(lib, ops, args.seconds, bool(args.trace), clock,
                                                wl.MIN_PASSES[args.workload])
    except (ImportError, OSError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    passes = untraced + [p for p, _t in traced]
    reference = [o[1] for o in passes[0].outcomes]
    failures = []
    for p in passes:
        for op, (ok, digest, _size, detail), first in zip(ops, p.outcomes, reference):
            if ok and digest != first:
                ok, detail = False, "artifact differs from the first pass"
            if not ok:
                failures.append({"op": op.op_id, "label": op.label, "detail": detail})
    attempted = sum(len(p.outcomes) for p in passes)
    artifact_digest = hashlib.sha256("".join(reference).encode()).hexdigest()

    e2e = end_to_end(args.workload, setup_times, untraced)
    report = {
        "workload": args.workload,
        "provenance": provenance(lib, args.seed),
        "artifact_sha256": artifact_digest,
        "end_to_end": e2e,
        "end_to_end_report_only": report_only(args.workload, ops, untraced, e2e["op_tail_s"],
                                              len(failures), attempted, raw_setup_times),
        "setup_times_s": setup_times,
        "raw_setup_times_s": raw_setup_times,
        "pass_walls_s": [p.wall for p in untraced],
        "raw_pass_walls_s": [p.raw_wall for p in untraced],
        "ops": [{"op": op.op_id, "label": op.label, "sha256": first}
                for op, first in zip(ops, reference)],
        "failures": failures,
    }
    if args.trace:
        layers, shares, checks = per_layer(ops, traced, untraced)
        report["per_layer"] = layers
        report["traced_self_share"] = shares
        report["trace_checks"] = dict(checks, unwrapped_targets=missing)
        report["end_to_end_report_only"]["samples_per_s"] = (
            layers["sph_integral.accepted"] / e2e["pass_s"])
        spans = [span for _p, t in traced for span in t.spans]
        with open(out_dir / f"{tag}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([[n, s, e, parent, op, None if a is None else {
                k: v for k, v in a.items() if k != "pass_key"}]
                for n, s, e, parent, op, a in spans], fh, default=list)
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"quatnev benchmark  workload={args.workload}")
    for key, value in report["provenance"].items():
        print(f"  provenance.{key} = {value}")
    print(f"  artifact_sha256 = {artifact_digest}")
    for key, value in report["end_to_end"].items():
        print(f"  {key:40s} {value:14.6g} {END_TO_END[key]}")
    for key, value in report["end_to_end_report_only"].items():
        print(f"  {key:40s} {value:14.6g} {REPORT_ONLY_UNITS.get(key, 's')}")
    if args.trace:
        for key, value in report["per_layer"].items():
            print(f"  {key:40s} {value:14.6g} {per_layer_unit(key)}")
        for key, value in report["trace_checks"].items():
            print(f"  trace_check.{key} = {value}")
    for failure in failures[:20]:
        print(f"  FAILED op {failure['op']} ({failure['label']}): {failure['detail']}")

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in report["end_to_end"].items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
