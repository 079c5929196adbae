"""Monte-Carlo surface means over ∂B_r with uncertainty and determinism.

The estimation engine draws uniform points on the 3-sphere of radius r from
a counter-based chunked stream (quat_core.gaussian_chunk), evaluates one or
more integrand columns per point, rejects samples that land inside the
singularity guard (continuing the same stream until the requested count of
accepted samples is reached), and accumulates partial sums in chunk order —
so results are bitwise-reproducible for a given configuration regardless of
how the work would be scheduled.

Integrand columns are produced by a single callable per request; callers
that need several quantities on the *same* stream (both Jensen boundary
means, characteristic comparisons, proximity defects) emit them as columns
of one evaluation so the Monte-Carlo noise is shared and identities hold
sample by sample.

A caller that needs many means on one stream — a radius profile, or T at
many (f, a, r) — passes them to mean_batch together.  Its walk is
chunk-outer: the Gaussians of chunk k are drawn once per call, scaled to
each radius that is still needed, and fed to every unfinished request,
which keeps its own mask, rejection count and sums.  Only the current
chunk is held, and every mean equals the one mean_columns gives for its
request alone.  A request (None, r) is a pass certified zero by its
caller; it draws nothing and gets the mean the walk would give it.

Within a chunk the walk goes radius group → request → block: a request
evaluates the chunk in blocks of quat_core.BLOCK points and stops after
the block that brings its accepted rows up to the number it still needs,
so column functions get at most BLOCK rows per call and must be
pointwise.  Each block of a (chunk, radius) group is a read-only
SlicePoints batch with (4, n) storage behind its (n, 4) view, made on
first use and shared by the group's later requests, so its slice frame
(u, v) and z = u + iv is computed once per (block, radius) and dropped
with its points when the walk moves on.  Under antithetic_pair the
conjugate block reuses the same (u, v, z).  A request writes its blocks
into a (CHUNK, k) buffer the walk owns, and its sums run on the filled
prefix, so every mean has the bits of a walk by whole chunks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quat_core import BLOCK, CHUNK, SlicePoints, _check_radius, gaussian_chunk
from .star_poly import NEAR_ZERO, SemiregularRational

__all__ = [
    "IntegratorConfig",
    "SphericalMean",
    "TooManyRejections",
    "mean_batch",
    "mean_columns",
    "mean_log_abs",
    "paired_reflection_mean",
]


class TooManyRejections(ArithmeticError):
    """More than 0.001·samples points were rejected.

    A point is rejected when it falls inside the singularity guard or when
    one of its integrand values is not finite.
    """


_SCHEMES = ("monte_carlo", "antithetic_pair")


@dataclass(frozen=True)
class IntegratorConfig:
    """Monte-Carlo configuration.

    samples counts accepted sample units (points for monte_carlo, (w, w̄)
    pairs for antithetic_pair); the stream continues past rejected draws,
    and their number is reported on the result.
    """

    samples: int = 300000
    seed: int = 2026
    scheme: str = "monte_carlo"

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.samples < 1000:
            raise ValueError("samples must be at least 1000")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")


@dataclass(frozen=True)
class SphericalMean:
    """A surface-mean estimate with its uncertainty.

    value ± std_error, where std_error is the sample standard deviation of
    the accepted units divided by √effective_samples.
    """

    value: float
    std_error: float
    effective_samples: int
    rejected: int

    @property
    def three_sigma(self) -> float:
        return 3.0 * self.std_error


def mean_columns(column_fn, r: float, cfg: IntegratorConfig):
    """Estimate the surface means of k integrand columns on one stream.

    column_fn(pts: (n, 4) array of points on ∂B_r) must return
    (vals: (n, k) array, ok: (n,) bool mask); rows with ok = False, and
    rows with a non-finite value, are rejected and replaced by continuing
    the stream.  It gets blocks of at most BLOCK points, so it must be
    pointwise: row i of its output depends on point i alone.  Under the
    antithetic_pair scheme the columns are evaluated at the batch and at
    its quaternion-conjugate batch, and each accepted unit is the pair
    average ½(v(w) + v(w̄)) with both points required to be acceptable.
    The point arrays are read-only.

    Returns a list of k SphericalMean sharing the accepted mask, so column
    differences are exact sample-by-sample statements.  This is the
    one-request case of mean_batch.
    """
    return mean_batch([(column_fn, r)], cfg)[0]


class _Pass:
    """Running state of one request of a batch: its rejection count and sums.

    A request with column_fn None is certified zero: it starts complete,
    with the one zero column that a walk accumulates when every sample is
    accepted and +0.0.
    """

    def __init__(self, column_fn, r, cfg: IntegratorConfig):
        _check_radius(r)
        self.column_fn = column_fn
        self.r = r
        self.needed = cfg.samples
        self.max_rejected = 0.001 * cfg.samples
        self.sums = self.run_mean = self.run_m2 = None
        self.taken = 0
        self.rejected = 0
        if column_fn is None:
            self.sums = self.run_m2 = np.zeros(1)
            self.taken = self.needed

    def columns(self, pts):
        """column_fn at one block, as an (n, k) float array and a bool mask."""
        vals, ok = self.column_fn(pts)
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("column_fn must return one row per point")
        return vals, np.asarray(ok, dtype=bool)

    def feed(self, block, scratch):
        """Accumulate the next chunk, block by block, until no more rows are needed.

        block(b) is the b-th (points, conjugate points or None) pair of the
        chunk's blocks, and scratch(k) a (CHUNK, k) buffer and a (CHUNK,)
        mask, owned by the walk and lent to one request at a time.
        """
        remaining = self.needed - self.taken
        buf = mask = None
        filled = n_ok = 0
        for b in range(CHUNK // BLOCK):
            pts, conj_pts = block(b)
            vals, ok = self.columns(pts)
            if buf is None:
                buf, mask = scratch(vals.shape[1])
            end = filled + len(pts)
            rows = buf[filled:end]
            if conj_pts is None:
                rows[...] = vals
            else:
                vals2, ok2 = self.columns(conj_pts)
                with np.errstate(invalid="ignore"):
                    np.add(vals, vals2, out=rows)
                    rows *= 0.5
                ok = ok & ok2
            # column by column: on an (n, k) block a row-wise all() is 5-10x slower
            for column in rows.T:
                ok = ok & np.isfinite(column)
            mask[filled:end] = ok
            filled = end
            n_ok += int(np.count_nonzero(ok))
            if n_ok >= remaining:
                break
        ok = mask[:filled]
        take_rows = buf[:filled] if n_ok == filled else buf[:filled][ok]
        n_rej = filled - n_ok
        if n_ok >= remaining:
            # count rejections only along the stream prefix actually used
            used = np.nonzero(ok)[0][remaining - 1] + 1
            n_rej = int(used - remaining)
            take_rows = take_rows[:remaining]
            n_ok = remaining
        self.rejected += n_rej
        if self.rejected > self.max_rejected:
            raise TooManyRejections(
                f"{self.rejected} rejected samples exceed the 0.001·samples bound "
                f"({self.max_rejected:.0f}) at r = {self.r}"
            )
        if self.sums is None:
            self.sums = np.zeros(take_rows.shape[1])
            self.run_mean = np.zeros(take_rows.shape[1])
            self.run_m2 = np.zeros(take_rows.shape[1])
        if n_ok:
            # centered chunk sums merged pairwise (Chan, Golub & LeVeque), so
            # the spread estimate does not depend on the offset of a column
            chunk_sum = take_rows.sum(axis=0)
            chunk_mean = chunk_sum / n_ok
            # take_rows is the walk's buffer or a gather from it, so center it in place
            dev = np.subtract(take_rows, chunk_mean, out=take_rows)
            delta = chunk_mean - self.run_mean
            merged = self.taken + n_ok
            self.run_m2 += (np.einsum("ij,ij->j", dev, dev)
                            + delta * delta * (self.taken * n_ok / merged))
            self.run_mean += delta * (n_ok / merged)
            self.sums += chunk_sum
        self.taken += n_ok

    def means(self):
        means = self.sums / self.needed
        std_err = np.sqrt(self.run_m2 / (self.needed - 1) / self.needed)
        return [
            SphericalMean(float(m), float(s), self.needed, self.rejected)
            for m, s in zip(means, std_err)
        ]


def _blocks(g, n, r: float, antithetic: bool):
    """block(b): the b-th BLOCK points of a (chunk, radius) group, made on first use.

    g and n are the chunk's Gaussians and their row norms.  Each block is
    a read-only SlicePoints, paired with its conjugate under
    antithetic_pair (else None), and kept, so every request of the group
    reads one slice frame per block.
    """

    @functools.cache
    def block(b):
        rows = slice(b * BLOCK, (b + 1) * BLOCK)
        pts = (g[rows].T * (r / n[rows])).T.view(SlicePoints)
        pts.setflags(write=False)
        return pts, (SlicePoints.conjugate_of(pts) if antithetic else None)

    return block


def mean_batch(requests, cfg: IntegratorConfig):
    """mean_columns for many (column_fn, r) requests from one walk of the stream.

    Chunks are the outer loop: the Gaussians of chunk k are drawn once and
    scaled to each radius still needed, and every unfinished request reads
    them.  A request keeps its own mask, rejection count and sums, so one
    with rejections reads further chunks alone.  Each column_fn gets
    blocks of at most BLOCK points and must be pointwise; a request stops
    after the block that completes it.  Requests at the same r share one
    read-only point array per block, which carries the slice frame they
    all read.  Rejections count along the stream prefix a request used,
    up to its last accepted row, also when a chunk's accepted rows
    exactly equal the rows still needed.

    A request (None, r) is certified zero: its one column is known to be
    +0.0 at every point of ∂B_r, with every sample accepted.  Its r is
    validated like any other, it is never live, and it reads no chunk, so
    a batch of such requests alone draws nothing.  Its result is
    SphericalMean(0.0, 0.0, cfg.samples, 0), the bits the walk gives that
    column.

    Returns one list of SphericalMean per request, each bitwise equal to
    mean_columns(column_fn, r, cfg).  When requests fail, the
    exception of the first failing request in request order is raised,
    which is the one calling mean_columns on each request in turn raises.
    """
    passes = []
    failure = None
    for column_fn, r in requests:
        try:
            passes.append(_Pass(column_fn, r, cfg))
        except ValueError as exc:
            failure = exc
            break
    antithetic = cfg.scheme == "antithetic_pair"

    @functools.cache
    def scratch(k):
        return np.empty((CHUNK, k)), np.empty(CHUNK, dtype=bool)

    # the rejection invariant (0.1%) trips long before this budget
    max_chunks = 2 * (cfg.samples // CHUNK + 2) + 8
    chunk_index = 0
    while True:
        live = [p for p in passes if p.taken < p.needed]
        if not live:
            break
        if chunk_index >= max_chunks:
            failure = TooManyRejections(
                f"stream exhausted after {chunk_index} chunks with "
                f"{live[0].rejected} rejections"
            )
            break
        g, n = gaussian_chunk(cfg.seed, 0, chunk_index)
        for r in dict.fromkeys(p.r for p in live):
            group = [p for p in passes if p.r == r and p.taken < p.needed]
            if not group:
                continue
            block = _blocks(g, n, r, antithetic)
            for p in group:
                try:
                    p.feed(block, scratch)
                except Exception as exc:
                    # held, not raised: an earlier request may still fail on
                    # a later chunk, and its exception is the one to raise
                    failure = exc
                    del passes[passes.index(p):]
                    break
            del block
        del g, n
        chunk_index += 1
    if failure is not None:
        raise failure
    return [p.means() for p in passes]


def _log_abs_sum(p, r: float) -> float:
    """log Σ_k |a_k| r^k of a polynomial p, summed in log space (−inf for p ≡ 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(np.hypot.reduce(p.coeffs, axis=1))
        terms[1:] += np.arange(1, terms.size) * np.log(r)
    return float(np.logaddexp.reduce(terms))


def _log_threshold(f, r: float) -> float:
    """log of the near-zero guard NEAR_ZERO·Σ_k |a_k| r^k of log|f| on ∂B_r.

    For a rational f the sum is that of num_eff over that of den_s.  The
    guard scales with f, so it rejects the same points of c·f for every
    c > 0; f ≡ 0 gets the finite guard log NEAR_ZERO, so its samples are
    all rejected.
    """
    if f.is_zero:
        return math.log(NEAR_ZERO)
    if isinstance(f, SemiregularRational):
        return math.log(NEAR_ZERO) + _log_abs_sum(f.num_eff, r) - _log_abs_sum(f.den_s, r)
    return math.log(NEAR_ZERO) + _log_abs_sum(f, r)


def mean_log_abs(f, r: float, cfg: IntegratorConfig) -> SphericalMean:
    """Surface mean of log|f| over ∂B_r.

    Samples with |f(w)| below NEAR_ZERO·Σ_k |a_k| r^k — or on a
    numerical pole — are rejected and resampled from the same stream; the
    count is reported and bounded by 0.001·samples.  No command calls it;
    it stays because the tests check the Jensen mean-value statement
    mean log|f| = log|f(0)| − H through it.
    """
    thr = _log_threshold(f, r)

    def columns(pts):
        se = f.stems(pts)
        la = se.log_abs()
        ok = se.ok & (la >= thr)
        return la[:, None], ok

    return mean_columns(columns, r, cfg)[0]


def paired_reflection_mean(f, r: float, cfg: IntegratorConfig):
    """Means of log|f(w)| and log|f(w̄)| on the same stream.

    Both columns share one stem evaluation and one accepted mask, so for
    slice-preserving f the two results are bitwise identical.  No command
    calls it; it exercises StemEval.log_abs_conj_point, which the
    benchmark's tracer wraps, and goes with it (ROADMAP item 5a).
    """
    thr = _log_threshold(f, r)

    def columns(pts):
        se = f.stems(pts)
        la = se.log_abs()
        lac = se.log_abs_conj_point()
        ok = se.ok & (la >= thr) & (lac >= thr)
        return np.stack([la, lac], axis=1), ok

    first, second = mean_columns(columns, r, cfg)
    return first, second
