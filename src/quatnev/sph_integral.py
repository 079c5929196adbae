"""Monte-Carlo surface means over ∂B_r with uncertainty and determinism.

The estimation engine draws uniform points on the 3-sphere of radius r from
a counter-based chunked stream (quat_core.SphereSampler), evaluates one or
more integrand columns per point, rejects samples that land inside the
singularity guard (continuing the same stream until the requested count of
accepted samples is reached), and accumulates partial sums in chunk order —
so results are bitwise-reproducible for a given configuration regardless of
how the work would be scheduled.

Integrand columns are produced by a single callable per batch; callers that
need several quantities on the *same* stream (both Jensen boundary means,
characteristic comparisons, proximity defects) emit them as columns of one
evaluation so the Monte-Carlo noise is shared and identities hold sample by
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat_core import CHUNK, SphereSampler, qconj

__all__ = [
    "IntegratorConfig",
    "SphericalMean",
    "TooManyRejections",
    "mean_columns",
    "mean_log_abs",
    "mean_weil",
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
    reject_tol: float = 1e-12

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError("samples must be at least 1000")
        if self.reject_tol <= 0.0:
            raise ValueError("reject_tol must be positive")
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


def mean_columns(column_fn, r: float, cfg: IntegratorConfig, stream_index: int = 0):
    """Estimate the surface means of k integrand columns on one stream.

    column_fn(pts: (n, 4) array of points on ∂B_r) must return
    (vals: (n, k) array, ok: (n,) bool mask); rows with ok = False, and
    rows with a non-finite value, are rejected and replaced by continuing
    the stream.  Under the antithetic_pair scheme the columns are
    evaluated at the batch and at its quaternion-conjugate batch, and each
    accepted unit is the pair average ½(v(w) + v(w̄)) with both points
    required to be acceptable.

    Returns a list of k SphericalMean sharing the accepted mask, so column
    differences are exact sample-by-sample statements.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    sampler = SphereSampler(radius=r, seed=cfg.seed, stream_index=stream_index)
    needed = cfg.samples
    max_rejected = 0.001 * cfg.samples
    sums = None
    taken = 0
    rejected = 0
    chunk_index = 0
    # the rejection invariant (0.1%) trips long before this budget
    max_chunks = 2 * (needed // CHUNK + 2) + 8
    while taken < needed:
        if chunk_index >= max_chunks:
            raise TooManyRejections(
                f"stream exhausted after {chunk_index} chunks with {rejected} rejections"
            )
        pts = sampler.chunk(chunk_index)
        chunk_index += 1
        vals, ok = column_fn(pts)
        vals = np.asarray(vals, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("column_fn must return one row per point")
        ok = np.asarray(ok, dtype=bool)
        if cfg.scheme == "antithetic_pair":
            vals2, ok2 = column_fn(qconj(pts))
            vals2 = np.asarray(vals2, dtype=float)
            if vals2.ndim == 1:
                vals2 = vals2[:, None]
            with np.errstate(invalid="ignore"):
                vals = 0.5 * (vals + vals2)
            ok = ok & np.asarray(ok2, dtype=bool)
        # column by column: on a (65536, k) chunk a row-wise all() is ~15x slower
        for column in vals.T:
            ok = ok & np.isfinite(column)
        take_rows = vals[ok]
        n_ok = take_rows.shape[0]
        n_rej = pts.shape[0] - n_ok
        remaining = needed - taken
        if n_ok > remaining:
            # count rejections only along the stream prefix actually used
            used = np.nonzero(ok)[0][remaining - 1] + 1
            n_rej = int(used - remaining)
            take_rows = take_rows[:remaining]
            n_ok = remaining
        rejected += n_rej
        if rejected > max_rejected:
            raise TooManyRejections(
                f"{rejected} rejected samples exceed the 0.001·samples bound "
                f"({max_rejected:.0f}) at r = {r}"
            )
        if sums is None:
            sums = np.zeros(take_rows.shape[1])
            run_mean = np.zeros(take_rows.shape[1])
            run_m2 = np.zeros(take_rows.shape[1])
        if n_ok:
            # centered chunk sums merged pairwise (Chan, Golub & LeVeque), so
            # the spread estimate does not depend on the offset of a column
            chunk_sum = take_rows.sum(axis=0)
            chunk_mean = chunk_sum / n_ok
            # take_rows is a copy made by boolean indexing, so center it in place
            dev = np.subtract(take_rows, chunk_mean, out=take_rows)
            delta = chunk_mean - run_mean
            merged = taken + n_ok
            run_m2 += np.einsum("ij,ij->j", dev, dev) + delta * delta * (taken * n_ok / merged)
            run_mean += delta * (n_ok / merged)
            sums += chunk_sum
        taken += n_ok
    means = sums / needed
    std_err = np.sqrt(run_m2 / (needed - 1) / needed)
    return [
        SphericalMean(float(m), float(s), needed, rejected)
        for m, s in zip(means, std_err)
    ]


def _log_threshold(f, r: float, reject_tol: float) -> float:
    """log of the singularity guard reject_tol·(1+r)^growth_degree."""
    return math.log(reject_tol) + f.growth_degree * math.log1p(r)


def mean_log_abs(f, r: float, cfg: IntegratorConfig, stream_index: int = 0) -> SphericalMean:
    """Surface mean of log|f| over ∂B_r.

    Samples with |f(w)| below reject_tol·(1+r)^deg — or on a numerical
    pole — are rejected and resampled from the same stream; the count is
    reported and bounded by 0.001·samples.
    """
    thr = _log_threshold(f, r, cfg.reject_tol)

    def columns(pts):
        se = f.stems(pts, cfg.reject_tol)
        la = se.log_abs()
        ok = se.ok & (la >= thr)
        return la[:, None], ok

    return mean_columns(columns, r, cfg, stream_index)[0]


def mean_weil(f, weil, r: float, cfg: IntegratorConfig, stream_index: int = 0) -> SphericalMean:
    """Surface mean of λ(f(w)) for a Weil-type singularity weight.

    weil must provide batch(values (n,4), guard_scale) -> (λ values (n,),
    ok (n,)); the guard scale passed is reject_tol·(1+r)^deg so the weight
    can reject samples inside its own singularity.
    """
    guard = cfg.reject_tol * (1.0 + r) ** f.growth_degree

    def columns(pts):
        se = f.stems(pts, cfg.reject_tol)
        lam, wok = weil.batch(se.value(), guard)
        return np.asarray(lam, dtype=float)[:, None], se.ok & np.asarray(wok, dtype=bool)

    return mean_columns(columns, r, cfg, stream_index)[0]


def paired_reflection_mean(f, r: float, cfg: IntegratorConfig, stream_index: int = 0):
    """Means of log|f(w)| and log|f(w̄)| on the same stream.

    Both columns share one stem evaluation and one accepted mask, so for
    slice-preserving f the two results are bitwise identical.
    """
    thr = _log_threshold(f, r, cfg.reject_tol)

    def columns(pts):
        se = f.stems(pts, cfg.reject_tol)
        la = se.log_abs()
        lac = se.log_abs_conj_point()
        ok = se.ok & (la >= thr) & (lac >= thr)
        return np.stack([la, lac], axis=1), ok

    first, second = mean_columns(columns, r, cfg, stream_index)
    return first, second
