"""Monte-Carlo surface means over ∂B_r with uncertainty and determinism.

The estimation engine draws uniform points on the 3-sphere of radius r from
a counter-based chunked stream (quat_core.SphereSampler.chunk), evaluates
one or more integrand columns per point, rejects samples that land inside
the singularity guard (continuing the same stream until the requested count
of accepted samples is reached), and accumulates partial sums in block
order — so results are bitwise-reproducible for a given configuration
regardless of how the work would be scheduled.

Integrand columns are produced by a single callable per request; callers
that need several quantities on the *same* stream (both Jensen boundary
means, characteristic comparisons, proximity defects) emit them as columns
of one evaluation so the Monte-Carlo noise is shared and identities hold
sample by sample.

A caller that needs many means on one stream — a radius profile, or T at
many (f, a, r) — passes them to mean_batch together.  Its walk goes
chunk → radius → block: the Gaussians of chunk k are drawn once per call,
and each block of quat_core.BLOCK of them is scaled to each radius that is
still needed and fed to every unfinished request, which keeps its own
rejection count and sums.  Only the current chunk and block are held,
every chunk of a call is drawn into one buffer that lives for the call, and
every mean equals the one mean_columns gives for its request alone.  A
request (None, r) is a pass certified zero by its caller; it draws nothing
and gets the mean the walk would give it.

A request stops after the block that brings its accepted rows up to the
number it needs, so column functions get at most BLOCK rows per call and
must be pointwise.  Each block is a read-only SlicePoints batch with
(4, n) storage behind its (n, 4) view, shared by every request at its
radius, so its slice frame (u, v), z = u + iv and I is computed once per
(block, radius) and dropped with its points; under antithetic_pair the
conjugate block reuses the same (u, v, z) and forms its own I, which is
−I off the real axis.  A request sums each block
where it is evaluated: its columns as contiguous (k, n) rows, summed
pairwise and merged into the running sums by one Chan–Golub–LeVeque
update, so the bits do not depend on the layout column_fn returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quat_core import BLOCK, CHUNK, SlicePoints, SphereSampler, _check_radius

__all__ = [
    "IntegratorConfig",
    "SphericalMean",
    "TooManyRejections",
    "mean_batch",
    "mean_columns",
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
        """column_fn at one block, as contiguous (k, n) rows and a bool mask."""
        vals, ok = self.column_fn(pts)
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("column_fn must return one row per point")
        return np.ascontiguousarray(vals.T), np.asarray(ok, dtype=bool)

    def feed(self, pts, conj_pts):
        """Accumulate one block: its points, and their conjugates or None.

        The block's accepted rows, cut at the rows still needed, are merged
        into the running sums; its rejections count along the used prefix.
        """
        # every non-finite row is rejected and counted below, so overflow in
        # column_fn or in the pair average is not warned
        with np.errstate(over="ignore", invalid="ignore"):
            cols, ok = self.columns(pts)
            if conj_pts is not None:
                cols2, ok2 = self.columns(conj_pts)
                cols = 0.5 * (cols + cols2)
                ok = ok & ok2
        ok = ok & np.isfinite(cols).all(axis=0)
        remaining = self.needed - self.taken
        if len(ok) <= remaining and ok.all():
            take = cols  # every row accepted and still needed: no gather
        else:
            accepted = np.flatnonzero(ok)
            if len(accepted) >= remaining:
                # count rejections only along the stream prefix actually used
                accepted = accepted[:remaining]
                self.rejected += int(accepted[-1] + 1 - remaining)
            else:
                self.rejected += len(ok) - len(accepted)
            if self.rejected > self.max_rejected:
                raise TooManyRejections(
                    f"{self.rejected} rejected samples exceed the 0.001·samples bound "
                    f"({self.max_rejected:.0f}) at r = {self.r}"
                )
            # take, not cols[:, accepted]: the (k, n) rows stay contiguous, and
            # NumPy sums contiguous rows pairwise
            take = cols.take(accepted, axis=1)
        n_ok = take.shape[1]
        if self.sums is None:
            self.sums = np.zeros(len(take))
            self.run_mean = np.zeros(len(take))
            self.run_m2 = np.zeros(len(take))
        if n_ok:
            # centered block sums merged pairwise (Chan, Golub & LeVeque), so
            # the spread estimate does not depend on the offset of a column
            block_sum = take.sum(axis=1)
            block_mean = block_sum / n_ok
            dev = take - block_mean[:, None]
            delta = block_mean - self.run_mean
            merged = self.taken + n_ok
            self.run_m2 += (np.einsum("ij,ij->i", dev, dev)
                            + delta * delta * (self.taken * n_ok / merged))
            self.run_mean += delta * (n_ok / merged)
            self.sums += block_sum
        self.taken += n_ok

    def means(self):
        means = self.sums / self.needed
        std_err = np.sqrt(self.run_m2 / (self.needed - 1) / self.needed)
        return [
            SphericalMean(float(m), float(s), self.needed, self.rejected)
            for m, s in zip(means, std_err)
        ]


def mean_batch(requests, cfg: IntegratorConfig):
    """mean_columns for many (column_fn, r) requests from one walk of the stream.

    The walk goes chunk → radius → block: the Gaussians of chunk k are
    drawn once, by SphereSampler(cfg.seed).chunk(k), and each BLOCK rows
    of them are scaled to each radius still needed, as one read-only point
    array (and its conjugate under antithetic_pair) that every unfinished
    request at that radius reads and that is dropped before the next
    block.  It carries the slice frame they all read.  A request keeps its
    own rejection count and sums, so one with rejections reads further
    blocks alone.  Each column_fn gets blocks of at most BLOCK points and
    must be pointwise; a request stops after the block that completes it.
    Rejections count along the stream prefix a request used, up to its
    last accepted row, also when a block's accepted rows exactly equal the
    rows still needed.

    A request (None, r) is certified zero: its one column is known to be
    +0.0 at every point of ∂B_r, with every sample accepted.  Its r is
    validated like any other, it is never live, and it reads no chunk, so
    a batch of such requests alone draws nothing.  Its result is
    SphericalMean(0.0, 0.0, cfg.samples, 0), the bits the walk gives that
    column.

    Every request's radius is checked before the first draw, so a bad one
    anywhere in the batch raises before any block is drawn.  Returns one
    list of SphericalMean per request, each bitwise equal to
    mean_columns(column_fn, r, cfg).  The first failure the chunk → radius
    → block walk meets is raised at once, and no block is drawn after it;
    when several requests would fail, that is the one met first on the
    walk, not necessarily the first in request order.
    """
    passes = [_Pass(column_fn, r, cfg) for column_fn, r in requests]
    antithetic = cfg.scheme == "antithetic_pair"
    # the rejection invariant (0.1%) trips long before this budget
    max_chunks = 2 * (cfg.samples // CHUNK + 2) + 8
    # every chunk of the walk is drawn into these two arrays, so no chunk
    # touches fresh pages; they live for this call only
    chunk_rows, draw_rows = np.empty((4, CHUNK)), np.empty((BLOCK, 4))
    sampler = SphereSampler(cfg.seed)
    chunk_index = 0
    while live := [p for p in passes if p.taken < p.needed]:
        if chunk_index >= max_chunks:
            raise TooManyRejections(
                f"stream exhausted after {chunk_index} chunks with "
                f"{live[0].rejected} rejections"
            )
        g, n = sampler.chunk(chunk_index, out=chunk_rows, scratch=draw_rows)
        for r in dict.fromkeys(p.r for p in live):
            for start in range(0, CHUNK, BLOCK):
                group = [p for p in passes if p.r == r and p.taken < p.needed]
                if not group:
                    break
                rows = slice(start, start + BLOCK)
                pts = (g[rows].T * (r / n[rows])).T.view(SlicePoints)
                pts.setflags(write=False)
                conj_pts = SlicePoints.conjugate_of(pts) if antithetic else None
                for p in group:
                    p.feed(pts, conj_pts)
                del pts, conj_pts
        del g, n
        chunk_index += 1
    return [p.means() for p in passes]

