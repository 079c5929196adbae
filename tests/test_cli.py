"""Command-line interface: exit codes, artifacts, determinism, config merging.

All invocations go through ``quatnev.cli.main(argv)`` in-process, so the
tests exercise exactly what the console script runs without spawning
subprocesses.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from quatnev import nevanlinna, quat_core, sph_integral, star_poly
from quatnev.cli import main
from quatnev.divisor import jensen_kernel, total_order_divisor
from quatnev.quat_core import SliceComplex, gaussian_chunk, slice_units, slice_uv
from quatnev.nevanlinna import NevanlinnaProfile, _radius_free as radius_free
from quatnev.sph_integral import mean_batch

FAST = ["--samples", "2000", "--seed", "2026"]
# a non-slice-preserving left polynomial and a semiregular rational
LEFT = [[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [1.0, 0, 0, 0]]
RATIONAL = {"num": [[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]],
            "den": [[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]]}


# ---------------------------------------------------------------------------
# Smoke: every command exits 0 on its default configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    ["verify-jensen", "profile", "fmt-check", "mpb-check", "arbiter",
     "algebra-suite", "selftest"],
)
def test_command_smoke_exit_zero(command, tmp_path, capsys):
    out = tmp_path / "artifact.csv"
    code = main([command, *FAST, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, f"{command} exited {code}:\n{captured.out}\n{captured.err}"
    assert out.exists(), f"{command} did not write its artifact"
    assert "✗" not in captured.out, f"{command} printed a FAIL line:\n{captured.out}"


def test_selftest_prints_all_pass(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("✓ PASS") >= 10, f"expected the full check table:\n{out}"
    assert "✗" not in out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def test_json_artifact_has_both_conventions(tmp_path):
    out = tmp_path / "jensen.json"
    code = main(["verify-jensen", *FAST, "--format", "json", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"corrected", "factor2"}
    for rep in blob.values():
        for key in ("lhs", "harmonic", "divisor_sum", "residual", "radius"):
            assert key in rep, f"artifact report missing {key}"
    assert blob["corrected"]["kernel_convention"] == "corrected_factor1"
    assert blob["factor2"]["kernel_convention"] == "doubled_factor2"


def test_profile_csv_schema(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(["profile", *FAST, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(NevanlinnaProfile.CSV_COLUMNS)
    assert len(lines) == 1 + 12, "default grid has 12 radii"
    first = lines[1].split(",")
    assert len(first) == len(NevanlinnaProfile.CSV_COLUMNS)
    float(first[0])  # radii column parses


def test_stdout_artifact_when_no_out(capsys):
    code = main(["arbiter", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "candidate,residual" in out, "CSV artifact should land on stdout"


def test_json_artifact_alone_on_stdout_when_no_out(capsys):
    code = main(["verify-jensen", *FAST, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    blob = json.loads(captured.out)
    assert set(blob) == {"corrected", "factor2"}
    assert "Jensen closure" in captured.err, "the human report belongs on stderr"


def test_report_stays_on_stdout_with_out(tmp_path, capsys):
    code = main(["verify-jensen", *FAST, "--out", str(tmp_path / "j.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert "Jensen closure" in captured.out and "wrote csv artifact" in captured.out
    assert captured.err == ""


# ---------------------------------------------------------------------------
# Monte-Carlo passes per command
# ---------------------------------------------------------------------------


@pytest.fixture
def counters(monkeypatch):
    """Count Monte-Carlo passes (requests to mean_batch), chunk draws,
    divisor extractions and radius-free parts of T."""
    counts = {"passes": 0, "draws": [], "divisors": 0, "parts": []}

    def counting_mean_batch(requests, *args, **kwargs):
        requests = list(requests)
        counts["passes"] += len(requests)
        return mean_batch(requests, *args, **kwargs)

    def recording_draw(seed, stream_index, chunk_index):
        counts["draws"].append((seed, stream_index, chunk_index))
        return gaussian_chunk(seed, stream_index, chunk_index)

    def counting_divisor(f):
        counts["divisors"] += 1
        return total_order_divisor(f)

    def recording_radius_free(f, a):
        counts["parts"].append((type(f), json.dumps(f.to_json()), repr(a)))
        return radius_free(f, a)

    monkeypatch.setattr(nevanlinna, "mean_batch", counting_mean_batch)
    monkeypatch.setattr(sph_integral, "mean_batch", counting_mean_batch)
    monkeypatch.setattr(sph_integral, "gaussian_chunk", recording_draw)
    monkeypatch.setattr(quat_core, "gaussian_chunk", recording_draw)
    monkeypatch.setattr(nevanlinna, "total_order_divisor", counting_divisor)
    monkeypatch.setattr(nevanlinna, "_radius_free", recording_radius_free)
    return counts


def test_verify_jensen_draws_one_pass_for_both_conventions(tmp_path, counters):
    assert main(["verify-jensen", *FAST, "--out", str(tmp_path / "j.csv")]) == 0
    assert counters["passes"] == 1
    assert counters["divisors"] == 1


def test_algebra_suite_draws_each_pass_once(tmp_path, counters):
    assert main(["algebra-suite", *FAST, "--out", str(tmp_path / "s.csv")]) == 0
    # 15 distinct means at each of the 4 default radii: 13 characteristics,
    # the mixed proximity and the sandwich.  For the real default f,
    # T(f^s, ∞) is T(f*f, ∞) and T(f^c, 0) is T(f, 0).
    assert counters["passes"] == 60
    # the divisor and the rest of T's radius-free part, once per distinct
    # (function, target)
    assert len(set(counters["parts"])) == len(counters["parts"])
    assert counters["divisors"] == len(counters["parts"])


@pytest.mark.parametrize("command, passes", [
    ("verify-jensen", 1), ("profile", 24), ("fmt-check", 24), ("mpb-check", 10),
    ("algebra-suite", 60),
])
def test_each_command_draws_each_chunk_once(command, passes, tmp_path, counters):
    assert main([command, *FAST, "--out", str(tmp_path / "a.csv")]) == 0
    assert counters["passes"] == passes
    # at FAST every pass reads chunk 0 only, and all passes read it together
    assert counters["draws"] == [(2026, 0, 0)]


@pytest.fixture
def frames(monkeypatch):
    """Record the radii of every Monte-Carlo request and the points of
    every (u, v) and I computation."""
    seen = {"radii": set(), "uv": [], "units": 0}

    def recording_mean_batch(requests, *args, **kwargs):
        requests = list(requests)
        seen["radii"].update(r for _fn, r in requests)
        return mean_batch(requests, *args, **kwargs)

    def recording_uv(pts):
        seen["uv"].append(hashlib.sha1(np.asarray(pts).tobytes()).hexdigest())
        return slice_uv(pts)

    def counting_units(*args):
        seen["units"] += 1
        return slice_units(*args)

    monkeypatch.setattr(nevanlinna, "mean_batch", recording_mean_batch)
    monkeypatch.setattr(sph_integral, "mean_batch", recording_mean_batch)
    monkeypatch.setattr(quat_core, "slice_uv", recording_uv)
    monkeypatch.setattr(star_poly, "slice_units", counting_units)
    return seen


@pytest.mark.parametrize("command", ["profile", "algebra-suite"])
def test_slice_coordinates_once_per_chunk_and_radius(command, tmp_path, frames):
    assert main([command, *FAST, "--out", str(tmp_path / "a.csv")]) == 0
    # at FAST every pass reads chunk 0 only, so each radius is one group
    assert len(frames["uv"]) == len(set(frames["uv"])) == len(frames["radii"])
    assert frames["units"] == 0, "slice-preserving stems formed unit imaginaries"


@pytest.mark.parametrize("function", [None, LEFT, RATIONAL],
                         ids=["default", "leftpoly", "rational"])
@pytest.mark.parametrize("command, form", [
    ("profile", None), ("fmt-check", 1), ("fmt-check", 2), ("fmt-check", 3),
    ("mpb-check", None), ("algebra-suite", None),
])
def test_batched_artifacts_equal_one_pass_at_a_time(command, form, function,
                                                    tmp_path, monkeypatch, capsys):
    cfg = {} if function is None else {
        "function": function, "a": [0.5, 0.1, 0.0, 0.0], "radii": [1.5, 4.0],
    }
    if form is not None:
        cfg["form"] = form
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "artifact.json"

    def run():
        out.unlink(missing_ok=True)
        code = main([command, "--config", str(path), *FAST, "--format", "json",
                     "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    batched = run()
    original = sph_integral.mean_batch

    def one_at_a_time(requests, cfg, stream_index=0):
        return [original([request], cfg, stream_index)[0] for request in requests]

    monkeypatch.setattr(sph_integral, "mean_batch", one_at_a_time)
    monkeypatch.setattr(nevanlinna, "mean_batch", one_at_a_time)
    assert run() == batched


@pytest.fixture
def formed(monkeypatch):
    """Every result of StemEval.value and StemEval.twisted, keyed by evaluation and shift."""
    seen = {"value": {}, "twisted": {}}

    def record(name):
        original = getattr(star_poly.StemEval, name)

        def recording(self, *args):
            out = original(self, *args)
            # the key holds the evaluation, so its id is never reused
            seen[name].setdefault((self, *args), []).append(out)
            return out

        monkeypatch.setattr(star_poly.StemEval, name, recording)

    record("value")
    record("twisted")
    return seen


@pytest.mark.parametrize("command, form, twists", [
    ("verify-jensen", None, False), ("mpb-check", None, True), ("fmt-check", 2, True),
])
def test_each_evaluation_forms_value_and_twist_once(command, form, twists, tmp_path, formed):
    cfg = {"function": LEFT, "a": [0.5, 0.1, 0.0, 0.0], "radii": [1.5, 4.0]}
    if form is not None:
        cfg["form"] = form
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # form 2 fails its slope gate on this f; the run still completes
    assert main([command, "--config", str(path), *FAST, "--out", str(tmp_path / "a.csv")]) in (0, 1)
    assert formed["value"] and bool(formed["twisted"]) == twists
    for results in formed["value"].values():
        assert all(r is results[0] for r in results), "value formed twice on one evaluation"
    for results in formed["twisted"].values():
        assert all(r[0] is results[0][0] for r in results), "twist formed twice at one shift"


@pytest.mark.parametrize("command, divisors", [("profile", 1), ("fmt-check", 2)])
def test_radius_grids_extract_each_divisor_once(command, divisors, tmp_path, counters):
    assert main([command, *FAST, "--out", str(tmp_path / "a.csv")]) == 0
    assert counters["divisors"] == divisors


# ---------------------------------------------------------------------------
# Determinism and config precedence
# ---------------------------------------------------------------------------


def test_same_spec_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify-jensen", *FAST, "--format", "json",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes(), "identical spec must reproduce bitwise"


def test_seed_changes_artifact(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-jensen", "--samples", "2000", "--seed", "1",
                 "--format", "json", "--out", str(a)]) == 0
    assert main(["verify-jensen", "--samples", "2000", "--seed", "2",
                 "--format", "json", "--out", str(b)]) == 0
    ra = json.loads(a.read_text())["corrected"]["residual"]
    rb = json.loads(b.read_text())["corrected"]["residual"]
    assert ra != rb, "different seeds must draw different streams"


def test_flag_overrides_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "samples": 2000}))
    with_flag = tmp_path / "flag.json"
    plain = tmp_path / "plain.json"
    assert main(["verify-jensen", "--config", str(cfg), "--seed", "2026",
                 "--format", "json", "--out", str(with_flag)]) == 0
    assert main(["verify-jensen", "--samples", "2000", "--seed", "2026",
                 "--format", "json", "--out", str(plain)]) == 0
    assert with_flag.read_bytes() == plain.read_bytes(), (
        "--seed must override the config file's seed"
    )


def test_config_supplies_the_function(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "function": {"num": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
                     "den": [[0.25, 0, 0, 0], [-1, 0, 0, 0], [1, 0, 0, 0]]},
        "r": 2.0,
    }))
    code = main(["verify-jensen", "--config", str(cfg), *FAST])
    # with no --out the report goes to stderr, next to the stdout artifact
    report = capsys.readouterr().err
    assert code == 0, report
    assert "✓ PASS" in report


def test_kernel_flag_selects_reported_convention(tmp_path):
    out = tmp_path / "j.json"
    assert main(["verify-jensen", *FAST, "--kernel", "doubled",
                 "--format", "json", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    diff = blob["corrected"]["residual"] - blob["factor2"]["residual"]
    want = jensen_kernel(SliceComplex(0.5, 0.7), 2.0)
    assert abs(diff - want) <= 1e-12, (
        "shared-stream residuals must differ by the closed-form kernel offset"
    )


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


def test_invalid_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["verify-jensen", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["verify-jensen", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_config_for_other_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "profile"}))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unsorted_radii_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radii": [10.0, 5.0, 20.0]}))
    code = main(["profile", "--config", str(cfg), *FAST])
    assert code == 2
    assert "sorted" in capsys.readouterr().err


def test_bad_function_literal_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[1, 0], [1, 0, 0, 0]]}))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2
    assert "coefficient rows" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    {"reject_tol": math.nan}, {"reject_tol": math.inf}, {"reject_tol": 0},
    {"samples": 2500.5}, {"samples": True}, {"seed": 1.5}, {"seed": True},
])
def test_unusable_integrator_settings_exit_2_before_sampling(settings, tmp_path,
                                                             capsys, counters):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2
    assert "config error: bad integrator settings" in capsys.readouterr().err
    assert counters["draws"] == []


def test_nested_rational_literal_exits_2(tmp_path, capsys):
    inner = {"num": [[1, 0, 0, 0]], "den": [[1, 0, 0, 0]]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"function": {"num": inner, "den": [[1, 0, 0, 0], [1, 0, 0, 0]]}, "r": 2}
    ))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2
    assert "coefficient lists" in capsys.readouterr().err


def test_bad_kernel_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "double"}))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2


def test_failed_gate_exits_1(tmp_path, capsys):
    """A slope gate that genuinely fails reports ✗ and exits 1, not 2."""
    cfg = tmp_path / "cfg.json"
    # the transient region below the plateau has a real slope ≈ −0.03,
    # well beyond the 0.01 flatness gate
    cfg.write_text(json.dumps({"radii": [2.0, 3.5, 6.0, 10.0, 17.0, 29.0, 50.0]}))
    code = main(["fmt-check", "--config", str(cfg), *FAST])
    report = capsys.readouterr().err
    assert code == 1, f"expected gate failure, got {code}:\n{report}"
    assert "✗" in report
