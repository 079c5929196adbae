"""Command-line interface: exit codes, artifacts, determinism, config merging.

All invocations go through ``quatnev.cli.main(argv)`` in-process, so the
tests exercise exactly what the console script runs without spawning
subprocesses.
"""

import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from quatnev import divisor, nevanlinna, quat_core, sph_integral, star_poly
from quatnev.cli import _COMMANDS, _build_parser, _parse_function, _parse_target, build_spec, main
from quatnev.divisor import jensen_kernel, total_order_divisor
from quatnev.quat_core import SliceComplex, SphereSampler, slice_units, slice_uv
from quatnev.nevanlinna import NevanlinnaProfile, _radius_free as radius_free
from quatnev.sph_integral import IntegratorConfig, mean_batch

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


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_config_of_the_command_defaults_exits_zero(command, tmp_path):
    """Every key of a command's defaults is a key the command reads."""
    assert _main_on(command, tmp_path, _COMMANDS[command].defaults) == 0


@pytest.mark.parametrize("command, function, extra", [
    # star powers of a real rational keep their denominator degree
    ("algebra-suite", {"num": [0.3, 0, 1], "den": [0.3, -0.2, 1]}, ["--samples", "20000"]),
    # the near-zero guard of log|f| scales with f
    ("verify-jensen", [[-0.5e-20, -0.7e-20, 0, 0], [1e-20, 0, 0, 0]], FAST),
    ("mpb-check", [[1e-20, 0, 0, 0], [1e-20, 0, 0, 0]], FAST),
    # Quaternion.norm of f(0) = −1e160 does not overflow
    ("verify-jensen", [[-1e160, 0, 0, 0], [1e160, 0, 0, 0]], FAST),
    # the divisor symmetrizes a unit-scale copy, and |f(0)| does not underflow
    ("verify-jensen", [[-0.5e-170, -0.7e-170, 0, 0], [1e-170, 0, 0, 0]], FAST),
    ("verify-jensen", [[-0.5e160, -0.7e160, 0, 0], [1e160, 0, 0, 0]], FAST),
    ("verify-jensen", [[-1e-170, 0, 0, 0], [1e-170, 0, 0, 0]], FAST),
], ids=["real-rational-star-powers", "tiny-linear", "tiny-mpb", "huge-linear",
        "tiny-quaternion", "huge-quaternion", "tiny-real"])
def test_hard_inputs_exit_zero(command, function, extra, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": function}))
    code = main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "a.csv")])
    captured = capsys.readouterr()
    assert code == 0, f"{command} exited {code}:\n{captured.out}\n{captured.err}"
    assert "✗" not in captured.out, f"{command} printed a FAIL line:\n{captured.out}"


def test_mpb_defects_of_a_huge_function_are_those_of_its_unit_copy(tmp_path):
    """At scale 1e150 the turn g⁻¹·I·g is formed on g scaled to unit size, so no sample is rejected."""
    defects = []
    for scale in (1.0, 1e150):
        cfg = tmp_path / f"cfg-{scale}.json"
        cfg.write_text(json.dumps({
            "function": [[c * scale for c in row] for row in LEFT],
            "a": [0.5 * scale, 0.1 * scale, 0, 0], "radii": [0.05, 3.0], "samples": 2000,
        }))
        out = tmp_path / f"mpb-{scale}.json"
        assert main(["mpb-check", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        defects.append([row["defect"] for row in json.loads(out.read_text())])
    assert defects[1] == pytest.approx(defects[0], rel=1e-11)


def test_mpb_defects_of_a_tiny_function_do_not_depend_on_its_scale(tmp_path):
    """Against a = 1 the defects of 2^k·h have reached their limit by k = −40:
    the twisted value P − Q·(g⁻¹·I·g) adds no a that would cancel it."""
    defects = {}
    for k in (-40, -60, -80):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps({
            "function": [[math.ldexp(c, k) for c in row] for row in LEFT],
            "a": [1.0, 0, 0, 0], "radii": [0.5, 2.0, 6.0], "samples": 20_000,
        }))
        out = tmp_path / f"mpb{k}.json"
        assert main(["mpb-check", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        defects[k] = [row["defect"] for row in json.loads(out.read_text())]
    assert defects[-60] == pytest.approx(defects[-40], abs=1e-9)
    assert defects[-80] == pytest.approx(defects[-40], abs=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_algebra_suite_refuses_a_singular_transform_at_any_scale(scale, tmp_path, capsys):
    entry = [scale, 0, 0, 0]
    config = {"transform": {"A": entry, "B": entry, "C": entry, "D": entry}}
    assert _main_on("algebra-suite", tmp_path, config) == 2
    assert "error: Dieudonné determinant" in capsys.readouterr().err


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

    chunk = SphereSampler.chunk

    def recording_draw(self, chunk_index, **buffers):
        counts["draws"].append((self.seed, self.stream_index, chunk_index))
        return chunk(self, chunk_index, **buffers)

    def counting_divisor(f):
        counts["divisors"] += 1
        return total_order_divisor(f)

    def recording_radius_free(f, a):
        counts["parts"].append((type(f), json.dumps(f.to_json()), repr(a)))
        return radius_free(f, a)

    monkeypatch.setattr(nevanlinna, "mean_batch", counting_mean_batch)
    monkeypatch.setattr(sph_integral, "mean_batch", counting_mean_batch)
    monkeypatch.setattr(SphereSampler, "chunk", recording_draw)
    monkeypatch.setattr(nevanlinna, "total_order_divisor", counting_divisor)
    monkeypatch.setattr(nevanlinna, "_radius_free", recording_radius_free)
    return counts


def test_verify_jensen_draws_one_pass_for_both_conventions(tmp_path, counters):
    assert main(["verify-jensen", *FAST, "--out", str(tmp_path / "j.csv")]) == 0
    assert counters["passes"] == 1
    assert counters["divisors"] == 1


def test_algebra_suite_draws_each_pass_once(tmp_path, counters):
    assert main(["algebra-suite", *FAST, "--out", str(tmp_path / "s.csv")]) == 0
    # 12 distinct means at each of the 4 default radii: 10 characteristics,
    # the mixed proximity and the sandwich.  For the real default f,
    # T(f^s, ∞) is T(f*f, ∞), T(f^c, 0) is T(f, 0), and at a = 0 the
    # conjugate target ā = −0 is a.
    assert counters["passes"] == 48
    # the divisor and the rest of T's radius-free part, once per distinct
    # (function, target)
    assert len(set(counters["parts"])) == len(counters["parts"])
    assert counters["divisors"] == len(counters["parts"])


# At their defaults every pass of profile and mpb-check is certified zero and
# draws nothing (test_certified_defaults_draw_no_chunk).  These configs keep
# their passes Monte-Carlo: profile on radii below 1, where |f − a| = |q²| < 1,
# and mpb-check on a non-slice-preserving f.
MONTE_CARLO_CONFIGS = {
    "profile": {"radii": list(np.geomspace(0.2, 0.9, 12))},
    "mpb-check": {"function": LEFT},
}


def _main_on(command, tmp_path, config=None):
    """main on command at FAST, with the config file ``config`` when given."""
    args = [command, *FAST, "--out", str(tmp_path / "a.csv")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    return main(args)


@pytest.mark.parametrize("command, passes", [
    ("verify-jensen", 1), ("profile", 24), ("fmt-check", 24), ("mpb-check", 10),
    ("algebra-suite", 48),
])
def test_each_command_draws_each_chunk_once(command, passes, tmp_path, counters):
    assert _main_on(command, tmp_path, MONTE_CARLO_CONFIGS.get(command)) == 0
    assert counters["passes"] == passes
    # at FAST every pass reads chunk 0 only, and all passes read it together
    assert counters["draws"] == [(2026, 0, 0)]


@pytest.mark.parametrize("command, passes", [("profile", 24), ("mpb-check", 10)])
def test_certified_defaults_draw_no_chunk(command, passes, tmp_path, counters):
    assert _main_on(command, tmp_path) == 0
    assert counters["passes"] == passes
    assert counters["draws"] == []


RATIONAL_TARGET = {"function": {"num": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
                                "den": [[0.5, 0.2, 0.1, 0], [1, 0, 0, 0]]},
                   "a": [0.3, 0.1, 0, 0.2], "radii": [0.5, 2.0, 8.0]}


@pytest.mark.parametrize("command, config, code, pairs", [
    ("profile", None, 0, 1),
    ("fmt-check", None, 0, 1),
    ("fmt-check", {"form": 2}, 0, 1),
    ("algebra-suite", None, 0, 4),
    ("profile", RATIONAL_TARGET, 0, 1),
    ("fmt-check", RATIONAL_TARGET, 1, 1),
    ("fmt-check", {**RATIONAL_TARGET, "form": 2}, 1, 1),
    # (f, a), (f^c, a), (f, ā), (f, b), (f^{-*}, a) and (Φ(f), a)
    ("algebra-suite", RATIONAL_TARGET, 1, 6),
], ids=["profile", "fmt-check-3", "fmt-check-2", "algebra-suite", "profile-rational",
        "fmt-check-3-rational", "fmt-check-2-rational", "algebra-suite-rational"])
def test_each_command_forms_each_shift_once(command, config, code, pairs, tmp_path, monkeypatch):
    """f − a is formed once per distinct (f, finite a) in one call, and (f − a)^s − 0 never."""
    shifts = []
    for cls in (star_poly.LeftPoly, star_poly.SemiregularRational):
        def recording(self, other, sub=cls.__sub__):
            if isinstance(other, quat_core.Quaternion):
                shifts.append((json.dumps(self.to_json()), tuple(other.to_array().tolist())))
            return sub(self, other)

        monkeypatch.setattr(cls, "__sub__", recording)
    assert _main_on(command, tmp_path, config) == code
    assert len(shifts) == len(set(shifts)) == pairs


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
    monkeypatch.setattr(quat_core, "slice_units", counting_units)
    return seen


@pytest.mark.parametrize("command", ["profile", "algebra-suite"])
def test_slice_coordinates_once_per_chunk_and_radius(command, tmp_path, frames):
    assert _main_on(command, tmp_path, MONTE_CARLO_CONFIGS.get(command)) == 0
    # at FAST every pass reads chunk 0 only, so each radius is one group
    assert len(frames["uv"]) == len(set(frames["uv"])) == len(frames["radii"])
    assert frames["units"] == 0, "slice-preserving stems formed unit imaginaries"


def test_fmt_form2_forms_unit_imaginaries_once_per_block_and_radius(tmp_path, frames):
    """f and f − a share their points, so I is formed once per (block, radius) group."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"function": LEFT, "a": [0.5, 0.1, 0.0, 0.0], "form": 2,
                                "radii": [1.5, 4.0]}))
    assert main(["fmt-check", "--config", str(path), "--samples", "20000",
                 "--out", str(tmp_path / "a.csv")]) in (0, 1)
    assert len(frames["uv"]) == len(set(frames["uv"])) > len(frames["radii"])
    assert frames["units"] == len(frames["uv"])


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

    def one_at_a_time(requests, cfg):
        return [original([request], cfg)[0] for request in requests]

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
    if command == "verify-jensen":  # one radius and no target: it refuses both
        del cfg["radii"], cfg["a"]
        cfg["r"] = 1.5
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


def test_fmt_form2_evaluates_each_chunk_once(tmp_path, monkeypatch):
    """Form 2 reads the stems of f − a off those of f: one evaluation per (chunk, radius)."""
    calls = []
    original = star_poly.LeftPoly.stems

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(star_poly.LeftPoly, "stems", counting)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"function": LEFT, "a": [0.5, 0.1, 0.0, 0.0],
                                "radii": [1.5, 4.0], "form": 2}))
    # form 2 fails its slope gate on this f; the run still completes
    assert main(["fmt-check", "--config", str(path), *FAST,
                 "--out", str(tmp_path / "a.csv")]) in (0, 1)
    # at FAST each radius reads chunk 0 only; RealPoly (the T passes) has its own stems
    assert len(calls) == 2


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


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_no_config_and_no_flags_give_the_integrator_defaults(command):
    args = _build_parser().parse_args([command])
    assert build_spec(command, args).integrator == IntegratorConfig()


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
    assert main(["verify-jensen", *FAST, "--format", "json", "--out", str(out)]) == 0
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


@pytest.mark.parametrize("command", ["profile", "fmt-check", "mpb-check", "algebra-suite"])
def test_repeated_radii_exit_2_before_sampling(command, tmp_path, capsys, counters):
    """A repeated radius is a config error, not a slope fit over rows of spread 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radii": [2.0, 2.0]}))
    assert main([command, "--config", str(cfg), *FAST]) == 2
    assert "strictly ascending" in capsys.readouterr().err
    assert counters["draws"] == []


@pytest.mark.parametrize("command", ["verify-jensen", "arbiter"])
def test_one_radius_commands_refuse_a_radius_list(command, tmp_path, capsys, counters):
    """verify-jensen and arbiter run at one radius; a longer list is an error, not a silent r = radii[0]."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radii": [1.0, 2.0, 3.0]}))
    assert main([command, "--config", str(cfg), *FAST]) == 2
    assert "config error" in capsys.readouterr().err
    assert counters["draws"] == []
    cfg.write_text(json.dumps({"radii": [1.5]}))
    assert main([command, "--config", str(cfg), *FAST, "--out", str(tmp_path / "a.csv")]) == 0


def test_a_config_radius_replaces_the_default_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 3.0}))
    out = tmp_path / "mpb.json"
    assert main(["mpb-check", "--config", str(cfg), *FAST, "--format", "json",
                 "--out", str(out)]) == 0
    assert [row["r"] for row in json.loads(out.read_text())] == [3.0]


def test_bad_function_literal_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[1, 0], [1, 0, 0, 0]]}))
    code = main(["verify-jensen", "--config", str(cfg)])
    assert code == 2
    assert "coefficient rows" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("verify-jensen", "function"), ("algebra-suite", "g")])
def test_zero_denominator_is_a_config_error(command, key, tmp_path, capsys, counters):
    """SemiregularRational's ZeroDivisionError is reported like every other bad input."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: {"num": [[1, 0, 0, 0]], "den": [[0, 0, 0, 0]]}}))
    assert main([command, "--config", str(cfg), *FAST]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: denominator")
    assert counters["draws"] == []


@pytest.mark.parametrize("settings", [
    {"samples": 999}, {"samples": "2500"}, {"scheme": "simpson"},
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


TRANSFORM = {"A": [1, 0, 0, 0], "B": [1, 0, 0, 0], "C": [1, 0, 0, 0], "D": [-1, 0, 0, 0]}


@pytest.mark.parametrize("command, settings, named", [
    ("verify-jensen", {"reject_tol": math.nan}, "reject_tol"),
    ("verify-jensen", {"reject_tol": math.inf}, "reject_tol"),
    ("verify-jensen", {"reject_tol": 0}, "reject_tol"),
    ("verify-jensen", {"reject_tol": 1e-3, "radius": 5}, "radius, reject_tol"),
    ("verify-jensen", {"kernel": "doubled"}, "kernel"),
    ("verify-jensen", {"candidates": [1, 2]}, "candidates"),
    # keys that other commands read and this one does not
    ("verify-jensen", {"a": [1, 0, 0, 0]}, "a"),
    ("profile", {"form": 7, "g": "nonsense"}, "form, g"),
    ("selftest", {"function": "garbage", "radii": [-1]}, "function, radii"),
    ("mpb-check", {"transform": TRANSFORM}, "transform"),
    ("arbiter", {"b": [1, 0, 0, 0]}, "b"),
    ("mpb-check", {"form": 3}, "form"),
    ("algebra-suite", {"form": 3}, "form"),
], ids=["reject_tol-nan", "reject_tol-inf", "reject_tol-zero", "misspelt-radius", "kernel",
        "candidates", "verify-jensen-a", "profile-form-g", "selftest-function-radii",
        "mpb-check-transform", "arbiter-b", "mpb-check-form", "algebra-suite-form"])
def test_unknown_config_keys_exit_2_before_sampling(command, settings, named, tmp_path,
                                                    capsys, counters):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = main([command, "--config", str(cfg)])
    assert code == 2
    assert f"config error: unknown config keys: {named}" in capsys.readouterr().err
    assert counters["draws"] == []


@pytest.mark.parametrize("command, settings", [
    ("verify-jensen", {"function": [[-1, 0, 0, 0], [math.inf, 0, 0, 0]]}),
    ("verify-jensen", {"function": [[math.nan, 0, 0, 0], [1, 0, 0, 0]]}),
    ("verify-jensen",
     {"function": {"num": [[1, 0, 0, 0]], "den": [[-1, 0, 0, 0], [-math.inf, 0, 0, 0]]}}),
    ("mpb-check", {"radii": [2.0, math.inf]}),
    ("mpb-check", {"radii": [math.nan]}),
    ("verify-jensen", {"r": math.inf}),
    ("profile", {"a": math.inf}),
    ("profile", {"a": math.nan}),
    ("profile", {"a": [1, math.nan, 0, 0]}),
    ("algebra-suite", {"b": -math.inf}),
    ("algebra-suite", {"b": [0, 0, math.inf, 0]}),
], ids=["inf-coefficient", "nan-coefficient", "inf-denominator", "inf-radius", "nan-radius",
        "inf-r", "inf-a", "nan-a", "nan-a-component", "inf-b", "inf-b-component"])
def test_non_finite_config_numbers_exit_2_before_sampling(command, settings, tmp_path,
                                                          capsys, counters):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = main([command, "--config", str(cfg), *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and "finite" in captured.err
    assert "Mean-proximity-balance" not in captured.out + captured.err, "report began"
    assert counters["draws"] == []


@pytest.mark.parametrize("command, settings, named", [
    ("verify-jensen", {"r": True}, "r"),
    ("mpb-check", {"radii": [True, 2.0]}, "radii"),
    ("verify-jensen", {"function": [[True, 0, 0, 0], [1, 0, 0, 0]]}, "function"),
    ("fmt-check", {"form": True}, "form"),
    ("profile", {"a": [True, 0, 0, 0]}, "a"),
], ids=["r", "radii", "coefficient", "form", "target-component"])
def test_boolean_config_numbers_exit_2_before_sampling(command, settings, named, tmp_path,
                                                       capsys, counters):
    """JSON true is not the number 1: it is refused wherever a number is read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code = main([command, "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {named}" in err and "finite" in err, err
    assert counters["draws"] == []


@pytest.mark.parametrize("command", ["profile", "fmt-check", "algebra-suite"])
def test_overflowing_symmetrization_exits_2_with_a_named_error(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[-0.5e160, -0.7e160, 0, 0], [1e160, 0, 0, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: f^s overflows" in err and "coefficient scale 1.000e+160" in err, err


@pytest.mark.parametrize("command", ["profile", "fmt-check"])
def test_target_near_the_float_range_exits_2_with_a_named_error(command, tmp_path, capsys):
    """The roots of f − a lie near 1.2e154; the unit-scale copy of f − a has a leading term
    near 2^−1024, which (f − a)^s squares below the float range, so the divisor refuses it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": [1e308, 1e308, 0, 0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert ("error: f − a: the symmetrization of a degree-2 side lost a coefficient below the "
            "float range: it has degree 2" in err and "orders sum" not in err), err


@pytest.mark.parametrize("r", [2.0000000000002, 2.0, 1.9999999999998])
def test_the_arbiter_refuses_a_boundary_sphere_before_drawing(r, tmp_path, capsys, counters):
    """q² + 4 has its zero sphere on |ζ| = 2, within 1e-12·r of each r, on either side."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [4, 0, 1], "r": r}))
    assert main(["arbiter", "--config", str(cfg), *FAST]) == 2
    assert f"error: divisor sphere |ζ| = 2.0 on the boundary r = {r!r}" in capsys.readouterr().err
    assert counters["draws"] == []


def test_kernel_divisor_underflow_exits_2_with_a_named_error(tmp_path, capsys):
    """The zero sphere of 1e-200 + q has (r/|ζ|)² = 4e400, past the float range."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[1e-200, 0, 0, 0], [1, 0, 0, 0]], "r": 2}))
    code = main(["verify-jensen", "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert ("error: ((|ζ|/r)² − (r/|ζ|)²)/4 does not fit a float at the divisor sphere "
            "|ζ| = 1e-200, r = 2.0") in err, err


def test_a_sphere_near_1e_160_is_found_before_the_kernel_refuses_it(tmp_path, capsys):
    """f^s = q² + 2e-160·q + 2e-320 keeps its subnormal constant term, and rooted at
    unit root scale it gives the one sphere, |ζ| ≈ √2·1e-160 to the 12 bits of that
    term, where it once gave a real root of odd multiplicity; (r/|ζ|)² is past the
    float range, so the kernel refuses it by name, as it does the sphere at 1e-200."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[1e-160, 1e-160, 0, 0], [1, 0, 0, 0]], "r": 2}))
    code = main(["verify-jensen", "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2 and "odd multiplicity" not in err, err
    found = re.search(r"error: \(\(\|ζ\|/r\)² − \(r/\|ζ\|\)²\)/4 does not fit a float at the "
                      r"divisor sphere \|ζ\| = (\S+), r = 2\.0", err)
    assert found, err
    assert abs(float(found[1]) / (math.sqrt(2.0) * 1e-160) - 1.0) <= 1e-4, err


def test_a_sphere_at_1e_79_gives_a_finite_artifact(tmp_path, capsys):
    """The zero sphere of 1e-79 + q has |ζ|⁴ = 1e-316, a subnormal the kernel once divided by.

    The kernel is about −1e158, read in the ratio r/|ζ|, so every number of
    the artifact is finite.  The closure is summed sphere by sphere, so H
    and the kernel sum no longer cancel in the residual; the gate may still
    miss on the zero-width 3σ of ROADMAP item 6, as log|f| is constant on
    ∂B₂ to far below an ulp: the residual is one ulp of log(2e79).
    """
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [[1e-79, 0, 0, 0], [1, 0, 0, 0]], "r": 2}))
    out = tmp_path / "a.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify-jensen", "--config", str(cfg), *FAST, "--format", "json",
                     "--out", str(out)])
    assert code in (0, 1), capsys.readouterr().err
    # json writes a non-finite float as Infinity, -Infinity or NaN
    artifact = json.loads(out.read_text(),
                          parse_constant=lambda name: pytest.fail(f"{name} in the artifact"))
    assert artifact["corrected"]["divisor_sum"] < -1e157


def test_a_sphere_at_1e155_gives_a_finite_artifact(tmp_path, capsys):
    """The zero sphere of q − 1e155 has |ζ|² past the float range, which the divisor never forms.

    log|f| ≈ 356.9 is constant on ∂B₁, so the gate may miss on the
    zero-width 3σ of ROADMAP item 6; every number of the artifact is finite.
    """
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": [-1e155, 1.0], "r": 1}))
    out = tmp_path / "a.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify-jensen", "--config", str(cfg), *FAST, "--format", "json",
                     "--out", str(out)])
    assert code in (0, 1), capsys.readouterr().err
    json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in the artifact"))


# numerator coefficients near 1e-144 put the roots of (f − a)^s and f^s near 1e48
ROOTS_NEAR_1E48 = {
    "function": {"num": [[0.3, 0.2, 0.1, 0.4], [0.5, -0.2, 0.3, 0.1], [0.7, 0.1, -0.4, 0.2],
                         [1e-144, 2e-144, 0, 0]],
                 "den": [[1.0, 0.3, 0, 0], [0.2, 0, 0.5, 0], [1.0, 0, 0, 0.2]]},
    "a": [1, 0, 0, 0],
    "radii": [1.0, 2.0],
}


@pytest.mark.parametrize("command", ["profile", "fmt-check"])
def test_roots_where_the_polynomial_overflows_exit_2_with_a_named_error(command, tmp_path,
                                                                        capsys):
    """Horner overflows near roots at 1e48, so the root iteration leaves NaN approximants."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ROOTS_NEAR_1E48))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", str(cfg), *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: " in err and "overflows a float there" in err, err


def test_roots_near_1e48_start_the_iteration_on_the_circle(monkeypatch):
    """The monic coefficients of (f − a)^s reach 1e190 and four of their companion
    eigenvalues are exact zeros, so the root iteration starts on the circle
    |z| = |c₀|^{1/n} instead, and ends in the named error without a RuntimeWarning."""
    starts = []
    horner = divisor._horner

    def recording_horner(rows, z):
        starts.append((rows[0].copy(), z.copy()))
        return horner(rows, z)

    monkeypatch.setattr(divisor, "_horner", recording_horner)
    f = _parse_function(ROOTS_NEAR_1E48["function"]) - _parse_target(ROOTS_NEAR_1E48["a"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="overflows a float there"):
            total_order_divisor(f)
    c, z = starts[0]
    deg = c.shape[0] - 1
    eig = np.linalg.eigvals(np.polynomial.polynomial.polycompanion(c.real))
    assert np.abs(c).max() > 1e190 and np.count_nonzero(eig == 0) == 4
    k = np.arange(deg)
    assert np.abs(z) == pytest.approx(abs(c[0]) ** (1.0 / deg) * (1.0 + 0.01 * k / deg))


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


def test_fmt_form1_with_one_radius_exits_2(tmp_path, capsys):
    """Form 1 fits its envelope over the radii, so one radius is a usage error, not a failed gate."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"form": 1, "radii": [2.0]}))
    code = main(["fmt-check", "--config", str(cfg), *FAST])
    assert code == 2
    assert "two radii" in capsys.readouterr().err


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
