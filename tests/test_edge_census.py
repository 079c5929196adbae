"""A seeded edge census: every config ends in finite numbers or a named error.

The configs are drawn once, from each of two fixed seeds, by ``_draw``: verify-jensen,
profile, mpb-check and fmt-check in turn, on a polynomial of degree 1–4
(real 30% of the time), or on a rational 30% of the time, with coefficient
scales out to 10^±300, radii 10^±3 and targets 10^±5 or ∞.  Each runs
in-process through ``cli.main`` at ``--samples 2000 --format json``.

The contract checked: no exception escapes ``main``; an exit 2 says
``error:`` or ``config error:``; every number of an exit-0 or exit-1
artifact is finite; and verify-jensen never exits 1, since the Jensen
formula is exact.  A config that breaks the contract is a strict xfail
that names its cause, and the list is never re-drawn around a defect.
"""

import contextlib
import io
import json
import math
import random

import pytest

from quatnev.cli import main

SEED = 18
SECOND_SEED = 19
COUNT = 128
COMMANDS = ("verify-jensen", "profile", "mpb-check", "fmt-check")


def _draw(rng: random.Random, command: str) -> dict:
    """One config for command.  Only rng.random() is read, so the draw is stable."""
    u = rng.random

    def coefficient(real):
        # most coefficients at unit scale, a fifth anywhere in 10^±300
        scale = 10.0 ** round(600 * u() - 300) if u() < 0.2 else 1.0
        parts = [2 * u() - 1] + [0.0 if real else 2 * u() - 1 for _ in range(3)]
        return [scale * x for x in parts]

    def poly(degree, real):
        return [coefficient(real) for _ in range(degree)] + [[1.0, 0.0, 0.0, 0.0]]

    def radius():
        return 10.0 ** (6 * u() - 3)

    kind = u()
    degree = 1 + int(4 * u())
    if kind < 0.3:
        function = [c[0] for c in poly(degree, real=True)]
    elif kind < 0.6:
        function = {"num": poly(degree, real=u() < 0.5), "den": poly(1 + int(2 * u()), real=False)}
    else:
        function = poly(degree, real=False)
    config = {"function": function}
    if command == "verify-jensen":
        config["r"] = radius()
        return config
    config["radii"] = sorted(radius() for _ in range(2))
    if u() < 0.25:
        config["a"] = "inf"
    else:
        config["a"] = [10.0 ** (10 * u() - 5) * (2 * u() - 1) for _ in range(4)]
    if command == "fmt-check":
        config["form"] = 1 + int(3 * u())
    return config


def _census(seed):
    rng = random.Random(seed)
    return [(COMMANDS[i % len(COMMANDS)], _draw(rng, COMMANDS[i % len(COMMANDS)]))
            for i in range(COUNT)]


CENSUS = _census(SEED)
#: a second draw of COUNT configs; none of them has a known defect
SECOND_CENSUS = _census(SECOND_SEED)


#: census index → the cause that keeps it from meeting the contract
KNOWN = {
    # the 1e107 constant term dominates f on ∂B_r, so log|f| ≈ 249.1 is
    # constant to 1e-17 and the residual −1.1e-13 (4 ulps of the mean)
    # misses a 3σ of 5.7e-15: the zero-width gate of ROADMAP item 6
    20: "a near-constant boundary mean meets a 3σ gate of near-zero width (item 6)",
}

#: a quadratic with a zero sphere at |ζ| = 1e-6: H = 2e12, which the closure
#: summed sphere by sphere never forms against the kernel sum (item 16)
TINY_SPHERE = ("verify-jensen", {"function": [[1e-12, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], "r": 2})

#: a cubic from an earlier draw of the census with a real zero near 6.8e-5 at
#: R = 931.2, where H and the kernel sum each reach −4.6e13 (item 16)
SMALL_REAL_ZERO = ("verify-jensen", {"function": [-0.00754, 110.2, 55.15, -28.02], "r": 931.2})


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _run(command, config, directory, samples=2000):
    """(exit code, stdout, stderr) of one config run in-process through main."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--samples", str(samples), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _error_line(err):
    """The first error: or config error: line of stderr, or None."""
    return next((line for line in err.splitlines()
                 if line.startswith(("error:", "config error:"))), None)


def _check(command, config, tmp_path, samples=2000):
    code, out, err = _run(command, config, tmp_path, samples)
    if code == 2:
        assert _error_line(err) is not None, err
        return code
    assert code in (0, 1), code
    bad = [x for x in _numbers(json.loads(out)) if not math.isfinite(x)]
    assert not bad, f"non-finite numbers in the artifact: {bad}"
    if command == "verify-jensen":
        assert code == 0, "the Jensen formula is exact, so its gate must hold"
    return code


@pytest.mark.parametrize("index", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, reason=KNOWN[i])) if i in KNOWN else i
    for i in range(COUNT)
])
def test_census_config_ends_in_finite_numbers_or_a_named_error(index, tmp_path):
    _check(*CENSUS[index], tmp_path)


@pytest.mark.parametrize("index", range(COUNT))
def test_second_census_config_ends_in_finite_numbers_or_a_named_error(index, tmp_path):
    _check(*SECOND_CENSUS[index], tmp_path)


def test_a_zero_sphere_at_one_millionth_closes_jensen(tmp_path):
    _check(*TINY_SPHERE, tmp_path)


def test_a_real_zero_near_7e_5_closes_jensen_at_20000_samples(tmp_path):
    """At 20 000 samples 3σ is 2.2e-5; the closure that formed H missed it by 4.7e-3."""
    _check(*SMALL_REAL_ZERO, tmp_path, samples=20_000)


def test_census_index_84_closes_jensen(tmp_path):
    """A linear quaternion f whose sphere sits near 1e-87: its symmetrization is
    rooted at unit root scale, so the divisor has the one sphere and the closure
    holds, where a real root of odd multiplicity once refused it."""
    assert _check(*CENSUS[84], tmp_path) == 0


def test_census_index_30_forms_its_rational_stems_near_the_float_range(tmp_path):
    """mpb-check on a rational whose numerator coefficients reach 9e296: at
    r = 49.4 the product of the den_s stem and the numerator stems would
    overflow, though the quotient fits a float; the stems multiply the
    numerator stems by the reciprocal of den_s, so the defects are finite."""
    assert _check(*CENSUS[30], tmp_path) in (0, 1)


@pytest.mark.parametrize("census, index", [(CENSUS, 74), (SECOND_CENSUS, 46)],
                         ids=["census-74", "second-census-46"])
def test_mpb_check_of_a_function_far_below_its_target_accepts_its_samples(census, index, tmp_path):
    """mpb-check where log|f| is near −515 and −387 on the sphere, far below
    |a|: the twisted value P − Q·(g⁻¹·I·g) keeps the scale of f, so no
    sample is rejected."""
    assert _check(*census[index], tmp_path) == 0


if __name__ == "__main__":
    # One line per config: list, index, command, exit code, the first 12 hex
    # digits of the stdout's sha256 and the first error line, so that two
    # versions of the package compare with one diff.
    import hashlib
    import tempfile
    from pathlib import Path

    runs = [("CENSUS", i, *case, 2000) for i, case in enumerate(CENSUS)]
    runs += [("SECOND_CENSUS", i, *case, 2000) for i, case in enumerate(SECOND_CENSUS)]
    runs += [("TINY_SPHERE", 0, *TINY_SPHERE, 2000), ("SMALL_REAL_ZERO", 0, *SMALL_REAL_ZERO, 20_000)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, index, command, config, samples in runs:
            code, out, err = _run(command, config, Path(tmp), samples)
            digest = hashlib.sha256(out.encode()).hexdigest()[:12]
            print(name, index, command, code, digest, _error_line(err) or "-")
