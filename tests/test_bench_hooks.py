"""The benchmark's per-layer trace still finds every quatnev call it wraps.

``perfbench/tracer.py`` (stdlib only) wraps quatnev functions and methods
by name.  A target that no longer resolves is reported missing at run time
and its layer silently records nothing, so this test pins every target.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# installed() also wraps sph_integral.mean_columns, outside TARGETS
TARGETS = [target[1:4] for target in _tracer().TARGETS] + [("sph_integral", None, "mean_columns")]


@pytest.mark.parametrize("module_name, owner_name, attr", TARGETS,
                         ids=[".".join(filter(None, t)) for t in TARGETS])
def test_trace_target_resolves(module_name, owner_name, attr):
    module = importlib.import_module(f"quatnev.{module_name}")
    if owner_name is None:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
    else:
        owner = getattr(module, owner_name, None)
        assert owner is not None, f"{module_name}.{owner_name} is gone"
        # the tracer replaces the attribute in the owner's own namespace
        assert callable(owner.__dict__.get(attr)), f"{owner_name}.{attr} is not defined on it"

