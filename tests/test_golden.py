"""A ledger of artifact hashes: no bit of a default artifact moves unannounced.

``golden/artifacts.json`` maps each CLI command to the SHA-256 of its
artifact at its built-in defaults, written with ``--samples 2000 --format
json``, and records the NumPy version the hashes were taken under.  A
change that moves bits rewrites the ledger in the same change and says
which entries moved and why:

    PYTHONPATH=src python tests/test_golden.py

The bits of a Monte-Carlo mean depend on NumPy's Philox stream and on its
summation order, so under another NumPy the test fails and names both
versions rather than pass without comparing anything.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from quatnev.cli import _COMMANDS, main

LEDGER = Path(__file__).resolve().parent / "golden" / "artifacts.json"
ARGS = ["--samples", "2000", "--format", "json"]


def _sha256(command: str, directory: Path) -> str:
    """SHA-256 of the artifact bytes of command at its defaults, run in-process."""
    out = directory / f"{command}.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, *ARGS, "--out", str(out)])
    assert code == 0, f"{command} exited {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_the_ledger_covers_every_command():
    assert set(json.loads(LEDGER.read_text())["sha256"]) == set(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_default_artifact_matches_the_ledger(command, tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert np.__version__ == ledger["numpy"], (
        f"the ledger was taken under NumPy {ledger['numpy']}, this is NumPy {np.__version__}; "
        "its hashes are not comparable here")
    assert _sha256(command, tmp_path) == ledger["sha256"][command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {command: _sha256(command, Path(tmp)) for command in _COMMANDS}
    LEDGER.write_text(json.dumps({"numpy": np.__version__, "sha256": hashes}, indent=2) + "\n")
    sys.stdout.write(LEDGER.read_text())
