"""The benchmark's per-layer trace still finds every quatnev call it wraps.

``perfbench/tracer.py`` (stdlib only) wraps quatnev functions and methods
by name.  A target that no longer resolves is reported missing at run time
and its layer silently records nothing, so this test pins every target,
and checks that the sampler layer counts every chunk a run draws.

Run as a script, ``PYTHONPATH=src python tests/test_bench_hooks.py``
prints the benchmark's traffic map: it builds the ops of each workload of
``perfbench/workloads.py`` at seed 1 and runs one pass of them under
``sys.settrace``, limited to the frames of ``src/quatnev``, then lists for
each function of the package the lines that no workload executed.  A speed
claim on such a line needs a workload that runs it first.  Nothing of it
runs under pytest.
"""

import dis
import importlib
import importlib.util
import inspect
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("perfbench_tracer", TRACER)


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


def test_every_nevanlinna_function_the_cli_calls_is_traced():
    """A nevanlinna function the CLI calls but the tracer does not wrap books
    its time under the tracer's ``cli`` layer instead of ``nevanlinna``."""
    cli = importlib.import_module("quatnev.cli")
    nevanlinna = importlib.import_module("quatnev.nevanlinna")
    imported = {name for name, value in vars(cli).items()
                if inspect.isfunction(value) and value.__module__ == nevanlinna.__name__}
    traced = {attr for _span, module, owner, attr, _attrs in _tracer().TARGETS
              if module == "nevanlinna" and owner is None}
    assert imported, "the CLI imports no nevanlinna function"
    assert imported <= traced, f"untraced: {sorted(imported - traced)}"


def test_the_tracer_sees_every_draw_of_a_run():
    """verify-jensen at its defaults walks 300 000 samples, 5 chunks, each
    drawn by SphereSampler.chunk under the mean_columns span."""
    tracer = _tracer()
    names = ("quat_core", "star_poly", "divisor", "sph_integral", "nevanlinna", "cli")
    modules = [importlib.import_module("quatnev")] + [importlib.import_module(f"quatnev.{name}")
                                                       for name in names]
    lib = SimpleNamespace(**dict(zip(names, modules[1:])), modules=lambda: modules)
    spans = tracer.Tracer()
    with tracer.installed(lib, spans) as missing:
        op = spans.begin(tracer.OP_SPAN)
        assert lib.cli.main(["verify-jensen", "--format", "json"]) == 0
        spans.end(op)
    assert missing == []
    metrics, _checks = tracer.layer_metrics(spans.spans)
    assert (metrics["quat_core.sampler.calls"] == metrics["quat_core.sampler.distinct_keys"]
            == metrics["sph_integral.chunks"] == 5)


def _unexecuted_lines(package, ran):
    """{"module:function": set of lines} of the package that ``ran`` lacks.

    A function's lines are the line starts of its code object and of the
    comprehensions, lambdas and generator expressions inside it.
    """
    missed = {}
    for path in sorted(package.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_name == "<module>":
                continue
            owner = code.co_qualname
            while owner.rsplit(".", 1)[-1].startswith("<") and "." in owner:
                owner = owner.rsplit(".", 1)[0].removesuffix(".<locals>")
            lines = {line for _offset, line in dis.findlinestarts(code) if line is not None}
            lines -= ran.get(str(path), set())
            if lines:
                missed.setdefault(f"{path.stem}:{owner}", set()).update(lines)
    return missed


def _spans(lines):
    """{1, 2, 3, 7} as "1-3, 7"."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


if __name__ == "__main__":
    bench = TRACER.parent
    sys.path.insert(0, str(bench))  # workloads.py imports reference.py beside it
    workloads = _load("perfbench_workloads", bench / "workloads.py")
    package = Path(__file__).resolve().parents[1] / "src" / "quatnev"
    prefix = str(package) + "/"
    ran = {}

    def local(frame, _event, _arg):
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def scoped(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    with tempfile.TemporaryDirectory() as workdir:
        sys.settrace(scoped)
        try:
            lib = workloads.fresh_import(str(package.parent))
            for name in workloads.WORKLOADS:
                failed = [op.label for op in workloads.build_ops(name, lib, 1, workdir)
                          if not op.check(op.execute())[0]]
                print(f"# {name}: one pass at seed 1, {len(failed)} ops failed {failed}",
                      file=sys.stderr)
        finally:
            sys.settrace(None)
    for where, lines in sorted(_unexecuted_lines(package, ran).items()):
        print(f"{where}: {_spans(lines)}")
