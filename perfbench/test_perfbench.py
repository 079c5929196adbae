"""Tests of the benchmark's own code (not of quatnev).

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

COUNT_KEYS = (
    "quat_core.sampler.calls",
    "quat_core.sampler.distinct_keys",
    "star_poly.stems_leftpoly.calls",
    "star_poly.stems_realpoly.calls",
    "star_poly.stems_rational.calls",
    "star_poly.points",
    "star_poly.twisted.calls",
    "sph_integral.passes",
    "sph_integral.chunks",
    "sph_integral.repeat_passes",
    "sph_integral.accepted",
    "sph_integral.rejected",
    "divisor.complex_roots.calls",
    "divisor.complex_roots.degree_sum",
    "divisor.total_order_divisor.calls",
)


@pytest.fixture(scope="module")
def lib():
    return wl.fresh_import(str(run.ROOT / "src"))


@pytest.fixture
def clock():
    with ref.HostClock(ref.small_kernel) as host_clock:
        yield host_clock


@pytest.fixture
def small_ops(lib, tmp_path):
    """A few cheap ops that reach every traced layer."""
    fast = ["--samples", "2000"]
    ops = [
        wl._cli_op(lib, k, command, fast, str(tmp_path / f"{k}.out"), command)
        for k, command in enumerate(("verify-jensen", "mpb-check", "arbiter", "selftest"))
    ]
    first = wl.jensen_inputs(lib, 5)[2]  # a rational verify-jensen
    config = tmp_path / "nc.json"
    config.write_text(json.dumps(first["config"]))
    ops.append(wl._cli_op(lib, len(ops), first["command"], ["--config", str(config), *fast],
                          str(tmp_path / "nc.out"), "noncommutative"))
    for item in wl.divisor_inputs(5)[:3]:
        ops.append(wl._divisor_op(lib, len(ops), item))
    return ops


def test_inputs_are_a_pure_function_of_the_seed(lib, tmp_path):
    assert wl.jensen_inputs(lib, 7) == wl.jensen_inputs(lib, 7)
    assert wl.jensen_inputs(lib, 7) != wl.jensen_inputs(lib, 8)

    def flat(items):
        return [(it["num"].tobytes(), None if it["den"] is None else it["den"].tobytes(),
                 it["planted"], it["radii"], it["target"].tobytes()) for it in items]

    assert flat(wl.divisor_inputs(7)) == flat(wl.divisor_inputs(7))
    assert flat(wl.divisor_inputs(7)) != flat(wl.divisor_inputs(8))
    argv = [op.argv for op in wl.build_ops("cli-defaults", lib, 7, str(tmp_path))]
    assert argv == [op.argv for op in wl.build_ops("cli-defaults", lib, 8, str(tmp_path))]
    assert [a[0] for a in argv] == list(wl.COMMANDS)


def test_planted_inputs_have_the_scheduled_shape():
    for i, item in enumerate(wl.divisor_inputs(3)):
        degree = item["num"].shape[0] - 1 + (0 if item["den"] is None else item["den"].shape[0] - 1)
        assert degree == 4 + i % 9
        assert (item["den"] is not None) == (i % 2 == 1)
        assert sum(abs(k) for _re, _im, k in item["planted"]) == degree


def test_counts_repeat_exactly_across_two_traced_runs(lib, small_ops, clock):
    runs = []
    for _ in range(2):
        tracer = tr.Tracer()
        with tr.installed(lib, tracer) as missing:
            result = run.run_pass(small_ops, clock, tracer)
        assert missing == []
        assert all(ok for ok, *_rest in result.outcomes), result.outcomes
        metrics, checks = tr.layer_metrics(tracer.spans)
        for wall, self_sum in checks.values():
            assert self_sum == pytest.approx(wall, abs=1e-9)
        runs.append(metrics)
    first, second = runs
    assert {k: first[k] for k in COUNT_KEYS} == {k: second[k] for k in COUNT_KEYS}
    for key in ("quat_core.sampler.calls", "star_poly.twisted.calls", "sph_integral.passes",
                "divisor.complex_roots.calls", "star_poly.stems_rational.calls"):
        assert first[key] > 0, key
    # verify-jensen draws its boundary mean twice, once per kernel convention
    assert first["sph_integral.repeat_passes"] >= 1


def test_untraced_run_has_no_wrapper_installed(lib, small_ops, clock):
    seen = []
    probe = wl.Op(99, "probe", "probe", lambda: seen.append(tr.installed_wrappers(lib)),
                  lambda raw: (True, b"", ""))
    untraced, traced, _missing = run.measure(lib, small_ops[:1] + [probe], 0.0, False, clock, 3)
    assert len(untraced) == 3 and traced == []
    assert seen == [[]] * 3

    tracer = tr.Tracer()
    with tr.installed(lib, tracer):
        assert tr.installed_wrappers(lib)
        with pytest.raises(RuntimeError):
            run.measure(lib, [probe], 0.0, False, clock, 3)
    assert tr.installed_wrappers(lib) == []


def test_traced_and_untraced_artifacts_are_identical(lib, small_ops, clock):
    plain = run.run_pass(small_ops, clock)
    tracer = tr.Tracer()
    with tr.installed(lib, tracer):
        traced = run.run_pass(small_ops, clock, tracer)
    assert [o[1] for o in plain.outcomes] == [o[1] for o in traced.outcomes]


def test_slowdown_uses_the_probes_inside_or_around_an_interval():
    host = ref.HostClock(ref.sample_kernel)
    nominal = ref.NOMINAL_S[ref.sample_kernel]
    host.times = [0.0, 1.0, 2.0, 3.0]
    host.values = [1.0 * nominal, 2.0 * nominal, 4.0 * nominal, 8.0 * nominal]
    assert host.slowdown(0.5, 2.5) == pytest.approx(3.0)  # probes inside
    assert host.slowdown(1.2, 1.8) == pytest.approx(3.0)  # neighbours
    assert host.slowdown(3.5, 4.0) == pytest.approx(8.0)  # only one before


def test_probe_time_is_not_charged_to_the_ops(clock):
    slow = wl.Op(0, "sleep", "sleep", lambda: time.sleep(0.5), lambda raw: (True, b"", ""))
    probes_before = len(clock.times)
    result = run.run_pass([slow], clock)
    assert len(clock.times) - probes_before >= 2  # the timer fired inside the op
    assert result.probe_s > 0.0
    assert result.raw[0] == pytest.approx(0.5, abs=0.05)
    assert result.latencies[0] == pytest.approx(result.raw[0] / result.slowdowns[0])


def test_self_times_subtract_children():
    spans = [
        [tr.OP_SPAN, 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 6.0, 0, 0, None],
        ["b", 2.0, 4.0, 1, 0, None],
        ["a", 7.0, 8.0, 0, 0, None],
    ]
    assert tr.self_times(spans) == [4.0, 3.0, 2.0, 1.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divisor-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout



def test_metric_names_match_benchmark_json(lib, small_ops, clock):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    untraced = [run.run_pass(small_ops[:1], clock)]
    tracer = tr.Tracer()
    with tr.installed(lib, tracer):
        traced = [(run.run_pass(small_ops[:1], clock, tracer), tracer)]
    layers, _shares, _checks = run.per_layer(small_ops[:1], traced, untraced)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["unit"] for m in spec["per_layer"]] == [run.per_layer_unit(k) for k in layers]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
