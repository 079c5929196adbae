"""Spans around quatnev's layer boundaries, installed from outside the package.

``installed(lib, tracer)`` replaces the functions and methods listed in
``TARGETS`` by wrappers that record one span per call and restores the
originals on exit.  Module-level functions are replaced under every name
that refers to them in any loaded quatnev module, since modules import
each other's functions by name.  Spans stay in memory; ``layer_metrics``
turns them into per-layer self times and counts.

A span is ``[name, start, end, parent, op_id, attrs]``: ``parent`` is the
index of the enclosing span (−1 for none) and ``attrs`` holds the counts
recorded at that boundary.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

OP_SPAN = "bench.op"

_NEVANLINNA_API = (
    "verify_jensen",
    "counting_arbiter",
    "mpb_defect",
    "verify_fmt",
    "characteristic_algebra_suite",
    "characteristic",
    "proximity",
    "harmonic_remainder",
    "admissible_radii",
    "n_bound_check",
)


def _points(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs.get("pts")
    return {"points": len(pts)}


def _sampler_key(args, kwargs):
    sampler = args[0]
    index = args[1] if len(args) > 1 else kwargs.get("chunk_index")
    return {"key": (sampler.seed, sampler.stream_index, index)}


def _degree(args, kwargs):
    return {"degree": args[0].degree}


# (span name, module, owner inside the module or None, attribute, attrs_fn)
TARGETS = [
    ("quat_core.sampler", "quat_core", "SphereSampler", "chunk", _sampler_key),
    ("star_poly.stems_leftpoly", "star_poly", "LeftPoly", "stems", _points),
    ("star_poly.stems_realpoly", "star_poly", "RealPoly", "stems", _points),
    ("star_poly.stems_rational", "star_poly", "SemiregularRational", "stems", _points),
    ("star_poly.log_abs", "star_poly", "StemEval", "log_abs", None),
    ("star_poly.log_abs", "star_poly", "StemEval", "log_abs_conj_point", None),
    ("star_poly.twisted", "star_poly", "StemEval", "twisted", None),
    ("star_poly.twisted", "star_poly", "StemEval", "log_abs_twisted", None),
    ("divisor.complex_roots", "divisor", None, "complex_roots", _degree),
    ("divisor.total_order_divisor", "divisor", None, "total_order_divisor", None),
    ("divisor.counting", "divisor", None, "N_integrated", None),
    ("divisor.counting", "divisor", None, "N_via_unintegrated", None),
    ("divisor.counting", "divisor", None, "signed_kernel_sum", None),
    ("nevanlinna", "nevanlinna", "NevanlinnaProfile", "compute", None),
    *[("nevanlinna", "nevanlinna", None, name, None) for name in _NEVANLINNA_API],
    ("cli.build_spec", "cli", None, "build_spec", None),
    ("cli", "cli", None, "main", None),
]

STEMS = ("star_poly.stems_leftpoly", "star_poly.stems_realpoly", "star_poly.stems_rational")


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.op_id = -1

    def begin(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, attrs])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, attrs_fn(args, kwargs) if attrs_fn else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    wrapper.span_name = name
    return wrapper


def _wrap_mean_columns(tracer: Tracer, fn):
    """mean_columns span; its column_fn runs under a nevanlinna.integrand span."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(column_fn, *args, **kwargs):
        bound = signature.bind(column_fn, *args, **kwargs)
        bound.apply_defaults()
        idx = tracer.begin("sph_integral.accumulate")
        try:
            result = fn(_wrap(tracer, "nevanlinna.integrand", column_fn, None), *args, **kwargs)
        finally:
            tracer.end(idx)
        means = tuple(
            (m.value.hex(), m.std_error.hex(), m.effective_samples, m.rejected) for m in result
        )
        key = (
            bound.arguments.get("r"),
            repr(bound.arguments.get("cfg")),
            bound.arguments.get("stream_index"),
            means,
        )
        tracer.spans[idx][5] = {
            "pass_key": key,
            "accepted": means[0][2] if means else 0,
            "rejected": means[0][3] if means else 0,
        }
        return result

    wrapper.span_name = "sph_integral.accumulate"
    return wrapper


def _replace_everywhere(modules, original, new, restore: list) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, new)
                restore.append((mod, key, original))


@contextlib.contextmanager
def installed(lib, tracer: Tracer):
    """Install the wrappers for the duration of the block; report misses.

    Yields the list of targets that do not exist in this version of the
    package (their layer then records nothing).
    """
    restore = []
    missing = []
    modules = lib.modules()
    try:
        for name, module_name, owner_name, attr, attrs_fn in TARGETS:
            module = getattr(lib, module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    missing.append(f"{module_name}.{owner_name}.{attr}")
                elif isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(_wrap(tracer, name, raw.__func__, attrs_fn)))
                    restore.append((owner, attr, raw))
                else:
                    setattr(owner, attr, _wrap(tracer, name, raw, attrs_fn))
                    restore.append((owner, attr, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
            else:
                _replace_everywhere(modules, original, _wrap(tracer, name, original, attrs_fn), restore)
        original = getattr(lib.sph_integral, "mean_columns", None)
        if original is None:
            missing.append("sph_integral.mean_columns")
        else:
            _replace_everywhere(modules, original, _wrap_mean_columns(tracer, original), restore)
        yield missing
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def installed_wrappers(lib) -> list:
    """Names under which a wrapper of this module is currently installed."""
    found = []
    owners = [getattr(getattr(lib, m), o, None) for _n, m, o, _a, _f in TARGETS if o is not None]
    for space in [*lib.modules(), *filter(None, owners)]:
        for key, value in list(vars(space).items()):
            if hasattr(getattr(value, "__func__", value), "span_name"):
                found.append(f"{getattr(space, '__name__', space)}.{key}")
    return found


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _name, start, end, _parent, _op, _attrs in spans]
    for _name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> tuple[dict, dict]:
    """(metrics, checks) for the spans of one traced pass.

    Only spans under an ``OP_SPAN`` root count.  ``calls`` counts entries
    into a layer from another layer, so a layer calling itself counts once.
    ``checks`` holds, per op, the traced wall time and the sum of self
    times under it, which must agree.
    """
    own = self_times(spans)
    root = [-1] * len(spans)
    for i, (name, _s, _e, parent, _op, _a) in enumerate(spans):
        root[i] = i if name == OP_SPAN and parent < 0 else (root[parent] if parent >= 0 else -1)
    self_s: dict = {}
    calls: dict = {}
    points = 0
    keys = []
    degree_sum = 0
    passes = chunks = repeats = accepted = rejected = 0
    seen_passes: dict = {}
    op_wall: dict = {}
    op_self: dict = {}
    for i, (name, start, end, parent, op_id, attrs) in enumerate(spans):
        if root[i] < 0:
            continue
        op_self[op_id] = op_self.get(op_id, 0.0) + own[i]
        self_s[name] = self_s.get(name, 0.0) + own[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == OP_SPAN:
            op_wall[op_id] = end - start
        if parent_name != name:
            calls[name] = calls.get(name, 0) + 1
        if name in STEMS and parent_name not in STEMS:
            points += attrs["points"]
        elif name == "quat_core.sampler":
            keys.append(attrs["key"])
            if parent_name == "sph_integral.accumulate":
                chunks += 1
        elif name == "divisor.complex_roots":
            degree_sum += attrs["degree"]
        elif name == "sph_integral.accumulate":
            passes += 1
            accepted += attrs["accepted"]
            rejected += attrs["rejected"]
            seen = seen_passes.setdefault(op_id, set())
            if attrs["pass_key"] in seen:
                repeats += 1
            seen.add(attrs["pass_key"])
    sampler_calls = calls.get("quat_core.sampler", 0)
    distinct = len(set(keys))
    metrics = {
        "quat_core.sampler.calls": sampler_calls,
        "quat_core.sampler.self_s": self_s.get("quat_core.sampler", 0.0),
        "quat_core.sampler.distinct_keys": distinct,
        "quat_core.sampler.reuse_frac": 1.0 - distinct / sampler_calls if sampler_calls else 0.0,
    }
    for stems in STEMS:
        metrics[f"{stems}.calls"] = calls.get(stems, 0)
        metrics[f"{stems}.self_s"] = self_s.get(stems, 0.0)
    metrics.update({
        "star_poly.points": points,
        "star_poly.log_abs.self_s": self_s.get("star_poly.log_abs", 0.0),
        "star_poly.twisted.calls": calls.get("star_poly.twisted", 0),
        "star_poly.twisted.self_s": self_s.get("star_poly.twisted", 0.0),
        "sph_integral.passes": passes,
        "sph_integral.chunks": chunks,
        "sph_integral.repeat_passes": repeats,
        "sph_integral.accumulate.self_s": self_s.get("sph_integral.accumulate", 0.0),
        "sph_integral.accepted": accepted,
        "sph_integral.rejected": rejected,
        "sph_integral.accept_frac": accepted / (accepted + rejected) if passes else 0.0,
        "nevanlinna.integrand.self_s": self_s.get("nevanlinna.integrand", 0.0),
        "nevanlinna.self_s": self_s.get("nevanlinna", 0.0),
        "divisor.complex_roots.calls": calls.get("divisor.complex_roots", 0),
        "divisor.complex_roots.self_s": self_s.get("divisor.complex_roots", 0.0),
        "divisor.complex_roots.degree_sum": degree_sum,
        "divisor.total_order_divisor.calls": calls.get("divisor.total_order_divisor", 0),
        "divisor.total_order_divisor.self_s": self_s.get("divisor.total_order_divisor", 0.0),
        "divisor.counting.self_s": self_s.get("divisor.counting", 0.0),
        "cli.build_spec.self_s": self_s.get("cli.build_spec", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.harness.self_s": self_s.get(OP_SPAN, 0.0),
    })
    checks = {op_id: (op_wall[op_id], op_self[op_id]) for op_id in op_wall}
    return metrics, checks
