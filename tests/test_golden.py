"""A ledger of artifact hashes: no bit of a default artifact moves unannounced.

``golden/artifacts.json`` maps each CLI command to the SHA-256 of its
artifact at its built-in defaults, written with ``--samples 2000 --format
json``, and records the NumPy version the hashes were taken under.  Under
``configs`` it keeps the exit code and SHA-256 of each entry of CONFIGS:
the defaults again at 70 000 samples, where every request crosses block
and chunk boundaries, and a quaternion cubic and a rational with a
quaternion denominator through profile, fmt-check and mpb-check.  A
change that moves bits rewrites the ledger in the same change and says
which entries moved and why.  This command names each entry whose exit
code or hash differs from the ledger on disk, or says that none did, and
then rewrites the ledger:

    PYTHONPATH=src python tests/test_golden.py

The bits of a Monte-Carlo mean depend on NumPy's Philox stream and on its
summation order, so under another NumPy the test fails and names both
versions rather than pass without comparing anything.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from quatnev.cli import _COMMANDS, main

LEDGER = Path(__file__).resolve().parent / "golden" / "artifacts.json"

# a degree-3 quaternion left polynomial and a rational with a quaternion denominator
CUBIC = [[0.3, 0.2, -0.1, 0.4], [1.0, 0.5, 0.0, -0.3], [0.2, -0.4, 0.1, 0.0], [1.0, 0, 0, 0]]
RATIONAL = {"num": [[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]],
            "den": [[0.25, 0, 0.1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]]}
TARGET = [0.5, 0.1, 0.0, 0.0]


def _configs() -> dict:
    """Ledger entry name → (command, config or None for the defaults, samples)."""
    configs = {f"{command}@70000": (command, None, 70_000) for command in _COMMANDS}
    for name, f in (("cubic", CUBIC), ("rational", RATIONAL)):
        configs[f"profile/{name}"] = ("profile", {"function": f, "a": TARGET, "radii": [0.5, 1.5, 4.0]}, 2000)
        for form in (1, 2, 3):
            configs[f"fmt-check-{form}/{name}"] = (
                "fmt-check", {"function": f, "a": TARGET, "form": form, "radii": [2.0, 5.0, 12.0]}, 2000)
        for scheme in ("monte_carlo", "antithetic_pair"):
            configs[f"mpb-check-{scheme}/{name}"] = (
                "mpb-check", {"function": f, "a": TARGET, "radii": [0.5, 2.0, 6.0], "scheme": scheme}, 2000)
    return configs


CONFIGS = _configs()


def _run(directory: Path, command: str, config=None, samples=2000) -> tuple:
    """(exit code, SHA-256 of the artifact bytes) of command on config, run in-process."""
    out = directory / f"{command}.json"
    args = [command, "--samples", str(samples), "--format", "json", "--out", str(out)]
    if config is not None:
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def _sha256(command: str, directory: Path) -> str:
    """SHA-256 of the artifact bytes of command at its defaults, run in-process."""
    code, digest = _run(directory, command)
    assert code == 0, f"{command} exited {code}"
    return digest


def test_the_ledger_covers_every_command():
    assert set(json.loads(LEDGER.read_text())["sha256"]) == set(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_default_artifact_matches_the_ledger(command, tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert np.__version__ == ledger["numpy"], (
        f"the ledger was taken under NumPy {ledger['numpy']}, this is NumPy {np.__version__}; "
        "its hashes are not comparable here")
    assert _sha256(command, tmp_path) == ledger["sha256"][command]


def test_the_ledger_covers_every_config():
    assert set(json.loads(LEDGER.read_text())["configs"]) == set(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_config_artifact_matches_the_ledger(name, tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert np.__version__ == ledger["numpy"], (
        f"the ledger was taken under NumPy {ledger['numpy']}, this is NumPy {np.__version__}; "
        "its hashes are not comparable here")
    code, digest = _run(tmp_path, *CONFIGS[name])
    assert {"exit": code, "sha256": digest} == ledger["configs"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {command: _sha256(command, Path(tmp)) for command in _COMMANDS}
        configs = {}
        for name, (command, config, samples) in CONFIGS.items():
            code, digest = _run(Path(tmp), command, config, samples)
            configs[name] = {"exit": code, "sha256": digest}
    # name each entry whose exit code or hash differs from the ledger on disk
    old = json.loads(LEDGER.read_text())
    moved = [name for name, digest in hashes.items() if old["sha256"].get(name) != digest]
    moved += [name for name, entry in configs.items() if old["configs"].get(name) != entry]
    print("\n".join(f"moved: {name}" for name in moved) or "no entry moved")
    LEDGER.write_text(json.dumps({"numpy": np.__version__, "sha256": hashes, "configs": configs},
                                 indent=2) + "\n")
