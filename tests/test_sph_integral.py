"""Seeded spherical Monte-Carlo means: reproducibility, schemes, rejection.

The estimator contract under test: bitwise determinism for a fixed
(seed, stream), prefix stability in the sample count, exact antithetic
cancellation of odd columns, honest standard errors, and hard failure
when the rejection budget is exhausted.  theta_rule is a deterministic
oracle for the means of columns that read only u + iv; the slice-law
means of the defaults are checked against it, and

    PYTHONPATH=src python tests/test_sph_integral.py zscores [seeds]

prints the z-scores of every 3σ-gated row against it over many seeds.
"""

import math
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from quatnev.quat_core import BLOCK, CHUNK, Quaternion, SlicePoints, SphereSampler
from quatnev.star_poly import LeftPoly, RealPoly, SemiregularRational
from quatnev.sph_integral import (
    IntegratorConfig,
    SphericalMean,
    TooManyRejections,
    mean_batch,
    mean_columns,
)
from quatnev import nevanlinna, sph_integral
from quatnev.cli import _COMMANDS, main
from quatnev.nevanlinna import NevanlinnaProfile, proximity
from test_quat_core import sphere_points

CFG = IntegratorConfig(samples=20_000, seed=2026)


def mean_log_abs(f, r, cfg):
    """Surface mean of log|f| over ∂B_r, as one mean_columns pass.

    A point is rejected on a numerical pole of f or where log|f| is below
    f.near_zero_log(r), the near-zero guard the package's passes read.
    """
    thr = f.near_zero_log(r)

    def columns(pts):
        se = f.stems(pts)
        la = se.log_abs()
        return la[:, None], se.ok & (la >= thr)

    return mean_columns(columns, r, cfg)[0]


def identity_columns(pts):
    ok = np.ones(len(pts), dtype=bool)
    return pts.copy(), ok


# ---------------------------------------------------------------------------
# Determinism and prefix behavior
# ---------------------------------------------------------------------------


def test_same_config_is_bitwise_reproducible():
    a = mean_columns(identity_columns, 1.7, CFG)[0]
    b = mean_columns(identity_columns, 1.7, CFG)[0]
    assert a.value == b.value and a.std_error == b.std_error


def test_streams_and_seeds_decorrelate():
    a = mean_columns(identity_columns, 1.7, CFG)[0]
    c = mean_columns(identity_columns, 1.7, IntegratorConfig(samples=20_000, seed=1))[0]
    assert a.value != c.value


def test_sample_prefix_is_shared_between_sizes():
    seen = {}

    def capture(pts):
        seen.setdefault("first", pts[:1000].copy())
        return pts[:, :1], np.ones(len(pts), dtype=bool)

    mean_columns(capture, 2.0, IntegratorConfig(samples=1000, seed=9))
    first_small = seen.pop("first")
    mean_columns(capture, 2.0, IntegratorConfig(samples=50_000, seed=9))
    first_large = seen.pop("first")
    assert np.array_equal(first_small, first_large[:1000]), (
        "the first 1000 draws must not depend on the total sample count"
    )


# ---------------------------------------------------------------------------
# Exact means
# ---------------------------------------------------------------------------


def test_constant_column_has_zero_error():
    def const(pts):
        return np.full((len(pts), 1), 3.25), np.ones(len(pts), dtype=bool)

    m = mean_columns(const, 1.0, CFG)[0]
    assert m.value == 3.25 and m.std_error == 0.0
    assert m.effective_samples == CFG.samples and m.rejected == 0


def test_log_abs_of_identity_is_log_radius():
    f = RealPoly([0.0, 1.0])                      # f(q) = q, |f| = r on the sphere
    m = mean_log_abs(f, 2.5, CFG)
    assert abs(m.value - math.log(2.5)) <= 1e-12
    assert m.std_error <= 1e-12


@pytest.mark.parametrize("c", [1e-160, 1e-20, 1e20, 1e160])
def test_near_zero_guard_scales_with_the_function(c):
    """c·f rejects the points f rejects, so its mean log-modulus is log c above f's."""
    f = LeftPoly([[-0.5, -0.7, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    m = mean_log_abs(f, 2.0, CFG)
    m_c = mean_log_abs(LeftPoly(f.coeffs * c), 2.0, CFG)
    assert m_c.rejected == m.rejected
    assert abs(m_c.value - (m.value + math.log(c))) <= 1e-9


def test_zero_function_rejects_every_sample():
    with pytest.raises(TooManyRejections):
        mean_log_abs(RealPoly([]), 2.0, CFG)


def test_antithetic_pairs_cancel_odd_columns_exactly():
    cfg = IntegratorConfig(samples=10_000, seed=3, scheme="antithetic_pair")

    def odd(pts):
        return pts[:, 1:2].copy(), np.ones(len(pts), dtype=bool)

    m = mean_columns(odd, 1.0, cfg)[0]
    assert m.value == 0.0, "conjugate pairing must cancel odd columns bitwise"
    assert m.std_error == 0.0


def test_scheme_changes_nothing_for_sphere_symmetric_columns():
    f = RealPoly([1.0, 0.0, 1.0])
    plain = mean_log_abs(f, 2.0, IntegratorConfig(samples=20_000, seed=6))
    anti = mean_log_abs(f, 2.0, IntegratorConfig(samples=20_000, seed=6, scheme="antithetic_pair"))
    assert plain.value == pytest.approx(anti.value, abs=0.0), (
        "log|f| is conjugation-symmetric for real coefficients, so pairing is a no-op"
    )


def test_mean_matches_closed_form_within_gate():
    # mean of log|q − 5| over |q| = 2: no zeros inside, harmonic mean value log 5
    f = LeftPoly([[-5, 0, 0, 0], [1, 0, 0, 0]])
    m = mean_log_abs(f, 2.0, IntegratorConfig(samples=200_000, seed=12))
    # the 4D mean carries the radius-2 defect of log|f^s|/2: for an empty
    # divisor, mean log|f| = log|f(0)| − H(f, 0, r) with H the series defect
    from quatnev.nevanlinna import harmonic_remainder

    want = math.log(5.0) - harmonic_remainder(f, Quaternion(0, 0, 0, 0), 2.0)
    assert abs(m.value - want) <= 3 * m.std_error + 1e-12, (
        f"mean {m.value} vs closed form {want} beyond 3σ = {3 * m.std_error}"
    )


# ---------------------------------------------------------------------------
# Standard errors
# ---------------------------------------------------------------------------


def test_std_error_shrinks_like_root_n():
    f = RealPoly([1.0, 0.0, 1.0])
    small = mean_log_abs(f, 2.0, IntegratorConfig(samples=4_000, seed=8))
    large = mean_log_abs(f, 2.0, IntegratorConfig(samples=64_000, seed=8))
    ratio = small.std_error / large.std_error
    assert 2.5 <= ratio <= 6.5, f"expected ≈4x shrink at 16x samples, got {ratio:.2f}"


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_std_error_does_not_depend_on_column_offset(offset):
    """A large constant offset must not swamp the spread of a column.

    On the unit 3-sphere E[w²] = 1/4, so the column offset + 5e-7·w has
    standard error 5e-7·0.5/√n, about 5.6e-10 at n = 200 000.
    """
    samples = 200_000
    cfg = IntegratorConfig(samples=samples, seed=2026)

    def columns(pts):
        return offset + 5e-7 * pts[:, :1], np.ones(len(pts), dtype=bool)

    m = mean_columns(columns, 1.0, cfg)[0]
    true = 5e-7 * 0.5 / math.sqrt(samples)
    assert abs(m.std_error - true) <= 0.05 * true, (
        f"offset {offset:g}: std_error {m.std_error:.3e}, expected {true:.3e}"
    )


def test_three_sigma_property():
    f = RealPoly([1.0, 0.0, 1.0])
    m = mean_log_abs(f, 2.0, CFG)
    assert m.three_sigma == pytest.approx(3.0 * m.std_error, abs=0.0)


# ---------------------------------------------------------------------------
# Rejection handling
# ---------------------------------------------------------------------------


def test_sparse_rejections_are_tolerated_and_counted():
    def flaky(pts):
        ok = np.ones(len(pts), dtype=bool)
        ok[::4096] = False                        # well under the 0.1% budget
        return pts[:, :1], ok

    m = mean_columns(flaky, 1.0, CFG)[0]
    assert m.rejected > 0
    assert m.effective_samples == CFG.samples


def test_mass_rejection_raises():
    def broken(pts):
        ok = pts[:, 0] > 0.0                      # rejects half of all draws
        return pts[:, :1], ok

    with pytest.raises(TooManyRejections):
        mean_columns(broken, 1.0, CFG)


def _record_draws(monkeypatch):
    """The (seed, stream_index, chunk_index) of every SphereSampler.chunk draw, as a list."""
    draws = []
    chunk = SphereSampler.chunk

    def recording(self, chunk_index, **buffers):
        draws.append((self.seed, self.stream_index, chunk_index))
        return chunk(self, chunk_index, **buffers)

    monkeypatch.setattr(SphereSampler, "chunk", recording)
    return draws


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_bad_radius_raises_before_any_draw(r, monkeypatch):
    draws = _record_draws(monkeypatch)
    with pytest.raises(ValueError, match="radius"):
        mean_columns(identity_columns, r, CFG)
    assert draws == []


@pytest.mark.parametrize("k", [1, 3])
def test_strided_columns_give_the_bits_of_contiguous_ones(k):
    """The memory layout of the columns column_fn returns must not move a bit."""
    cfg = IntegratorConfig(samples=CHUNK + 5_000, seed=2026)  # one whole chunk, then a prefix

    def strided(pts):
        # the points view (4, n) rows, so pts[:, 1:2] is contiguous; a C-order copy is not
        vals = np.ascontiguousarray(pts)[:, 1:1 + k]
        assert not vals.flags.c_contiguous
        return vals, np.ones(len(pts), dtype=bool)

    def contiguous(pts):
        vals, ok = strided(pts)
        return np.ascontiguousarray(vals), ok

    assert _bits(mean_columns(strided, 1.3, cfg)) == _bits(mean_columns(contiguous, 1.3, cfg))


def _stream_rows(scheme="monte_carlo"):
    """rows(pts): the stream positions of the rows of one column_fn call of a request.

    column_fn gets one block per call.  A request reads its blocks in
    stream order and stops early only in its last chunk, so a running
    offset is the position of a block's first row; chunk c, row i is
    position c·CHUNK + i.  Under antithetic_pair each block is read twice,
    at its points and then at their conjugates.  Make one per request.
    """
    reads_per_block = 2 if scheme == "antithetic_pair" else 1
    offset = reads = 0

    def rows(pts):
        nonlocal offset, reads
        start = offset
        reads += 1
        if reads % reads_per_block == 0:
            offset += len(pts)
        return np.arange(start, start + len(pts))

    return rows


def _chunks_read(rows_read):
    return -(-rows_read // CHUNK)


@pytest.mark.parametrize("rows_by_chunk, rejected", [
    ({0: [5, 17, 900]}, 3),             # a rejecting chunk, then a clean one
    ({1: [10, 50_000]}, 1),             # row 50 000 lies past the prefix the second chunk gives
])
def test_rejections_are_counted_across_clean_and_rejecting_chunks(rows_by_chunk, rejected):
    cfg = IntegratorConfig(samples=CHUNK + 4_000, seed=2026)
    bad = [c * CHUNK + i for c, rows in rows_by_chunk.items() for i in rows]
    rows = _stream_rows()
    read = []

    def columns(pts):
        at = rows(pts)
        read.append(len(pts))
        return pts[:, :2], ~np.isin(at, bad)

    means = mean_columns(columns, 1.0, cfg)
    assert _chunks_read(sum(read)) == 2
    assert all(m.rejected == rejected and m.effective_samples == cfg.samples for m in means)


def _poisoned(bad, value, scheme="monte_carlo"):
    """Columns (w, x) that hold ``value`` at the given stream positions, all marked ok."""
    rows = _stream_rows(scheme)

    def columns(pts):
        vals = pts[:, :2].copy()
        vals[np.isin(rows(pts), bad), 1] = value
        return vals, np.ones(len(pts), dtype=bool)

    return columns


@pytest.mark.parametrize("scheme", ["monte_carlo", "antithetic_pair"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rows_are_rejected_and_counted(scheme, value):
    cfg = IntegratorConfig(samples=20_000, seed=2026, scheme=scheme)
    bad = [3, 500, 7_000, 19_000]
    means = mean_columns(_poisoned(bad, value, scheme), 1.0, cfg)
    assert all(math.isfinite(m.value) and math.isfinite(m.std_error) for m in means)
    assert all(m.rejected == len(bad) for m in means)
    rows = _stream_rows(scheme)

    def masked(pts):
        return pts[:, :2], ~np.isin(rows(pts), bad)

    want = mean_columns(masked, 1.0, cfg)
    assert [m.value for m in means] == [m.value for m in want], (
        "a non-finite row must count exactly like a row marked not ok"
    )


def test_non_finite_rows_past_the_bound_raise():
    bad = list(range(0, 20 * 1000, 1000)) + [1]   # 21 rows > 0.001·20 000
    with pytest.raises(TooManyRejections):
        mean_columns(_poisoned(bad, np.nan), 1.0, CFG)


def test_weil_guard_rejects_near_singularity():
    # target on the integration sphere itself: the weight is singular there,
    # but only a vanishing fraction of draws lands inside the guard
    f = RealPoly([0.0, 1.0])
    m = proximity(f, Quaternion(1.0, 0, 0, 0), 1.0, CFG)
    assert math.isfinite(m.value)
    assert m.rejected <= 0.001 * CFG.samples


# ---------------------------------------------------------------------------
# Batches: one walk of the stream, each request as if alone
# ---------------------------------------------------------------------------

# just under one chunk, so a request with a few rejections reads a second one
NEAR_CHUNK = IntegratorConfig(samples=65_530, seed=2026)


def _bits(means):
    return [(m.value.hex(), m.std_error.hex(), m.rejected) for m in means]


def _cap_rejecting(side, cap, counts=None):
    """Columns (w, x²) that reject rows with side·w/|q| above cap."""

    def columns(pts):
        if counts is not None:
            counts.append(len(pts))
        w = pts[:, 0] / np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return np.stack([pts[:, 0], pts[:, 1] ** 2], axis=1), side * w <= cap

    return columns


def _assert_batch_is_sequential(requests, cfg):
    batch = mean_batch(requests, cfg)
    alone = [mean_columns(column_fn, r, cfg) for column_fn, r in requests]
    assert [_bits(m) for m in batch] == [_bits(m) for m in alone]
    return batch


def test_batch_walks_the_stream_in_chunk_order():
    """Three chunks of one stream, checked against the sampler's own points."""
    cfg = IntegratorConfig(samples=150_000, seed=5)
    batch = mean_batch([(identity_columns, 0.8), (identity_columns, 2.5)], cfg)
    for r, means in zip((0.8, 2.5), batch):
        want = sphere_points(r, 5, cfg.samples).mean(axis=0)
        assert [m.value for m in means] == pytest.approx(want, rel=0, abs=1e-12)


def test_batch_equals_single_requests_at_mixed_radii():
    requests = [(identity_columns, 1.7), (_cap_rejecting(1, 1.0), 0.4),
                (identity_columns, 1.7), (identity_columns, 3.0)]
    _assert_batch_is_sequential(requests, CFG)


def test_batch_requests_read_different_numbers_of_chunks():
    reads = [[], [], []]
    requests = [
        (_cap_rejecting(1, 0.995, reads[0]), 1.0),   # ~14 rejections per chunk
        (_cap_rejecting(-1, 0.99, reads[1]), 2.5),   # ~40 per chunk
        (_cap_rejecting(1, 1.0, reads[2]), 1.0),     # none
    ]
    batch = _assert_batch_is_sequential(requests, NEAR_CHUNK)
    # each request was read once by the batch and once alone
    assert [_chunks_read(sum(r) // 2) for r in reads] == [2, 2, 1]
    assert [m[0].rejected > 0 for m in batch] == [True, True, False]


def test_batch_equals_single_requests_under_antithetic_pairs():
    cfg = IntegratorConfig(samples=20_000, seed=11, scheme="antithetic_pair")
    f = LeftPoly([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0]])

    def log_abs(pts):
        se = f.stems(pts)
        return se.log_abs()[:, None], se.ok

    requests = [(log_abs, 1.5), (identity_columns, 1.5), (_cap_rejecting(1, 0.999), 2.0)]
    _assert_batch_is_sequential(requests, cfg)


def _late_failure():
    """Columns that reject the first ten rows of chunk 0, then every row of chunk 1."""
    rows = _stream_rows()

    def columns(pts):
        at = rows(pts)
        return pts[:, :1], (at >= 10) & (at < CHUNK)

    return columns


def test_batch_raises_the_first_failing_request(monkeypatch):
    """The first failure the chunk → radius → block walk meets, not the first in request order."""
    draws = _record_draws(monkeypatch)
    early_rows = []

    def early(pts):
        early_rows.append(len(pts))
        return pts[:, :1], np.zeros(len(pts), dtype=bool)

    # the second request fails on chunk 0, before the first one would fail on
    # chunk 1; the walk raises it at once and draws no further chunk
    with pytest.raises(TooManyRejections, match="at r = 2.0"):
        mean_batch([(_late_failure(), 1.0), (early, 2.0)], NEAR_CHUNK)
    assert sum(early_rows) == BLOCK
    assert len(draws) == 1


@pytest.mark.parametrize("r", [0.0, math.nan])
def test_a_bad_radius_anywhere_in_a_batch_raises_before_any_draw(r, monkeypatch):
    draws = _record_draws(monkeypatch)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return identity_columns(pts)

    with pytest.raises(ValueError, match="radius"):
        mean_batch([(counted, 1.0), (identity_columns, r)], CFG)
    assert draws == [] and calls == []


def _walk_draws(monkeypatch, samples):
    """The g of every chunk one mean_columns walk draws."""
    drawn = []

    chunk = SphereSampler.chunk

    def recording(self, chunk_index, **buffers):
        g, n = chunk(self, chunk_index, **buffers)
        drawn.append(g)
        return g, n

    monkeypatch.setattr(SphereSampler, "chunk", recording)
    mean_columns(identity_columns, 1.0, IntegratorConfig(samples=samples, seed=7))
    return drawn


def test_one_walk_draws_every_chunk_into_one_buffer(monkeypatch):
    """Three chunks of one walk share a buffer; a second walk has its own."""
    first = _walk_draws(monkeypatch, 2 * CHUNK + 1_000)
    assert len(first) == 3
    assert all(np.shares_memory(g, first[0]) for g in first[1:])
    second = _walk_draws(monkeypatch, 1_000)
    assert not np.shares_memory(second[0], first[0])


def test_shared_points_are_read_only():
    def writer(pts):
        pts[0, 0] = 0.0
        return pts[:, :1], np.ones(len(pts), dtype=bool)

    with pytest.raises(ValueError, match="read-only"):
        mean_batch([(identity_columns, 1.0), (writer, 1.0)], CFG)


def test_profile_memory_does_not_grow_with_radii():
    """A batch holds one chunk, however many radii it serves."""
    cfg = IntegratorConfig(samples=150_000, seed=2026)
    f = RealPoly([1.0, 0.0, 1.0])

    def peak(radii):
        tracemalloc.start()
        try:
            NevanlinnaProfile.compute(f, None, radii, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak([2.0])  # first-call allocations
    one = peak([2.0])
    twelve = peak(np.geomspace(0.5, 40.0, 12))
    assert twelve - one <= 1_000_000, f"peak grew by {(twelve - one) / 1e6:.2f} MB"


@pytest.mark.parametrize("scheme", ["monte_carlo", "antithetic_pair"])
def test_slice_frame_dies_with_its_points(scheme):
    """Nothing a (chunk, radius) group computed outlives the batch."""
    cfg = IntegratorConfig(samples=20_000, seed=2026, scheme=scheme)
    g = LeftPoly([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    f = RealPoly([1.0, 0.0, 1.0])
    refs = []

    def columns(pts):
        se = g.stems(pts)
        la = se.log_abs()
        refs[:] = [weakref.ref(x) for x in (pts, se.pts.uv[1], se.pts.I, pts.z, la)]
        return la[:, None], se.ok

    def real_columns(pts):
        se = f.stems(pts)
        return se.log_abs()[:, None], se.ok

    mean_batch([(columns, 1.5), (real_columns, 1.5), (columns, 2.5)], cfg)
    assert refs and all(ref() is None for ref in refs), "a slice frame outlived its group"


# ---------------------------------------------------------------------------
# Blocks: the walk stops at the block that completes a request
# ---------------------------------------------------------------------------


def _block_walk_means(column_fn, r, cfg):
    """mean_columns of one request, walked block by block from SphereSampler.chunk.

    Each BLOCK rows of a chunk are scaled to ∂B_r and evaluated; the
    block's accepted rows are gathered in stream order, cut at the rows
    still needed, laid out as (k, n) rows and merged with the same sums
    and Chan–Golub–LeVeque update as the library.  Rejections count along
    the used prefix only, including when a block's accepted rows exactly
    equal the rows needed.
    """
    taken = rejected = chunk = 0
    sums = run_mean = run_m2 = 0.0
    while taken < cfg.samples:
        g, n = SphereSampler(cfg.seed).chunk(chunk)
        chunk += 1
        for start in range(0, CHUNK, BLOCK):
            if taken == cfg.samples:
                break
            rows = slice(start, start + BLOCK)
            pts = (g[rows].T * (r / n[rows])).T.view(SlicePoints)
            pts.setflags(write=False)
            vals, ok = column_fn(pts)
            if cfg.scheme == "antithetic_pair":
                vals2, ok2 = column_fn(SlicePoints.conjugate_of(pts))
                with np.errstate(invalid="ignore"):
                    vals = 0.5 * (vals + vals2)
                ok = ok & ok2
            ok = ok & np.isfinite(vals).all(axis=1)
            remaining = cfg.samples - taken
            used = len(ok)
            if np.count_nonzero(ok) >= remaining:
                used = int(np.nonzero(ok)[0][remaining - 1] + 1)
            take = np.ascontiguousarray(vals[:used][ok[:used]].T)
            n_ok = take.shape[1]
            rejected += used - n_ok
            if not n_ok:
                continue
            block_sum = take.sum(axis=1)
            block_mean = block_sum / n_ok
            dev = take - block_mean[:, None]
            delta = block_mean - run_mean
            merged = taken + n_ok
            run_m2 = run_m2 + (np.einsum("ij,ij->i", dev, dev) + delta * delta * (taken * n_ok / merged))
            run_mean = run_mean + delta * (n_ok / merged)
            sums = sums + block_sum
            taken = merged
    means = sums / cfg.samples
    std_err = np.sqrt(run_m2 / (cfg.samples - 1) / cfg.samples)
    return [SphericalMean(float(m), float(e), cfg.samples, rejected)
            for m, e in zip(means, std_err)]


def _log_columns(f, r, rows=None, bad=()):
    """Columns (log|f|, log|f∘S_f|) with the library's guards.

    With a _stream_rows ``rows``, the stream positions in ``bad`` are
    rejected as well.
    """
    thr = f.near_zero_log(r)

    def columns(pts):
        se = f.stems(pts)
        la = se.log_abs()
        lat, ok_t = se.log_abs_twisted(None)
        ok = se.ok & ok_t & (la >= thr) & (lat >= thr)
        if rows is not None:
            ok &= ~np.isin(rows(pts), bad)
        return np.stack([la, lat], axis=1), ok

    return columns


_BLOCK_FUNCTIONS = [
    RealPoly([0.5, -1.0, 0.0, 1.0]),
    LeftPoly([[1, 1, 0, 0], [0.5, 0, -1, 0], [0, 0, 0.3, 1], [1, 0, 0, 0]]),
    SemiregularRational(LeftPoly([[1, 0, 0, 0], [0.2, 0.1, 0, 0], [1, 0, 0, 0]]),
                        LeftPoly([[0.3, 0, 0.4, 0], [1, 0, 0, 0]])),
]


@pytest.mark.parametrize("scheme", ["monte_carlo", "antithetic_pair"])
def test_blocks_give_the_bits_of_whole_chunks(scheme):
    """Each mean of a batch equals the reference walk, bit for bit.

    20 000 samples stop in the third block of chunk 0; CHUNK + 5 000 read
    chunk 0 whole, then a prefix of chunk 1.
    """
    for samples in (20_000, CHUNK + 5_000):
        cfg = IntegratorConfig(samples=samples, seed=7, scheme=scheme)
        requests = [(_log_columns(f, r), r) for f in _BLOCK_FUNCTIONS for r in (0.7, 1.9)]
        batch = mean_batch(requests, cfg)
        want = [_block_walk_means(column_fn, r, cfg) for column_fn, r in requests]
        assert [_bits(m) for m in batch] == [_bits(m) for m in want]


@pytest.mark.parametrize("scheme", ["monte_carlo", "antithetic_pair"])
@pytest.mark.parametrize("samples, bad, rejected", [
    # five rows across the first block boundary; row CHUNK − 1 lies after the
    # last used sample when chunk 0 accepts exactly the rows needed
    (CHUNK - 6, [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, CHUNK - 1], 5),
    # the same run, then a rejected row past the prefix chunk 1 gives
    (CHUNK + 4_000, [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, CHUNK + 4_100], 5),
])
def test_rejections_straddling_blocks_give_the_bits_of_whole_chunks(scheme, samples, bad, rejected):
    cfg = IntegratorConfig(samples=samples, seed=7, scheme=scheme)
    f = _BLOCK_FUNCTIONS[1]
    got = mean_columns(_log_columns(f, 1.3, _stream_rows(scheme), bad), 1.3, cfg)
    want = _block_walk_means(_log_columns(f, 1.3, _stream_rows(scheme), bad), 1.3, cfg)
    assert _bits(got) == _bits(want)
    assert all(m.rejected == rejected and m.effective_samples == samples for m in got)


def test_a_small_request_reads_one_block_per_radius():
    """2 000 samples need one BLOCK-row block, which every request at its radius shares."""
    cfg = IntegratorConfig(samples=2_000, seed=7)
    seen = [[], [], []]

    def recorder(i):
        def columns(pts):
            seen[i].append(pts)
            return pts[:, :1], np.ones(len(pts), dtype=bool)

        return columns

    mean_batch([(recorder(0), 1.0), (recorder(1), 2.0), (recorder(2), 1.0)], cfg)
    assert [[len(pts) for pts in calls] for calls in seen] == [[BLOCK]] * 3
    assert seen[0][0] is seen[2][0] and seen[0][0] is not seen[1][0]


@pytest.mark.parametrize("shape", [lambda n: (n - 1, 1), lambda n: (n,)],
                         ids=["short-of-a-row", "one-dimensional"])
def test_a_column_function_off_the_n_by_k_shape_is_refused(shape):
    def columns(pts):
        return np.zeros(shape(len(pts))), np.ones(len(pts), dtype=bool)

    with pytest.raises(ValueError, match=r"\(n, k\) array, one row per point"):
        mean_columns(columns, 1.0, IntegratorConfig(samples=1000, seed=1))


# ---------------------------------------------------------------------------
# The θ-rule: a deterministic oracle for columns that read only u + iv
# ---------------------------------------------------------------------------

# nodes of the θ-rule the oracle checks against; the rule at twice as many
# gives its error
RULE_NODES = 4096


def _theta_sum(column_fn, r, n):
    """Σ_k w_k·c(r·e^{iθ_k}) with θ_k = kπ/(n+1) and w_k = (2/(n+1))·sin²θ_k.

    The surface measure of ∂B_r, pushed to θ = arg(u + iv), is
    (2/π)·sin²θ dθ, and this is Gauss–Chebyshev of the second kind for
    it.  The nodes go to column_fn BLOCK at a time as slice-law batches.
    A node the column rejects (ok False or a non-finite value) has no
    rule value: the rule refuses it with ValueError.
    """
    theta = np.arange(1, n + 1) * (math.pi / (n + 1))
    weights = (2.0 / (n + 1)) * np.sin(theta) ** 2
    total = 0.0
    for start in range(0, n, BLOCK):
        th = theta[start:start + BLOCK]
        vals, ok = column_fn(SlicePoints.from_uv(r * np.cos(th), r * np.sin(th)))
        vals = np.asarray(vals, dtype=float)
        if not (np.all(ok) and np.isfinite(vals).all()):
            raise ValueError(f"the θ-rule reached a rejected node at r = {r}")
        total = total + weights[start:start + BLOCK] @ vals
    return total


def theta_rule(column_fn, r, n=RULE_NODES):
    """(means, errors) over ∂B_r of the columns of a column function that reads only u + iv.

    means is Q_n, the θ-rule with n nodes, and errors is |Q_n − Q_2n|,
    each a (k,) array.
    """
    q_n, q_2n = _theta_sum(column_fn, r, n), _theta_sum(column_fn, r, 2 * n)
    return q_n, np.abs(q_n - q_2n)


def rule_of_request(request):
    """theta_rule of a slice-law request (column_fn, r, True); a certified-zero
    request (None, r, …) has the exact mean 0."""
    column_fn, r, *_law = request
    if column_fn is None:
        return np.zeros(1), np.zeros(1)
    return theta_rule(column_fn, r)


def recorded_requests(monkeypatch):
    """A list that collects (request, means) of every mean_batch and
    mean_columns call of the package while the patch lasts."""
    seen = []
    original = sph_integral.mean_batch

    def recording(requests, cfg):
        requests = list(requests)
        results = original(requests, cfg)
        seen.extend(zip(requests, results))
        return results

    monkeypatch.setattr(sph_integral, "mean_batch", recording)
    monkeypatch.setattr(nevanlinna, "mean_batch", recording)
    return seen


# a mean that rounding alone separates from its rule (an identically-zero
# column, such as the sandwich's lower slack of a real f) is within this
ROUNDING = 1e-12


@pytest.mark.parametrize("command", ["arbiter", "fmt-check", "algebra-suite"])
def test_slice_law_means_of_the_defaults_meet_the_theta_rule(command, monkeypatch, tmp_path):
    """Every slice-law mean of arbiter, fmt-check form 3 and algebra-suite's
    rows (T, mixed, sandwich) at their defaults lies within 3σ plus the
    rule error of the θ-rule."""
    seen = recorded_requests(monkeypatch)
    assert main([command, "--out", str(tmp_path / "a.csv")]) == 0
    slice_requests = [(req, means) for req, means in seen if req[2:] == (True,)]
    assert slice_requests and len(slice_requests) == len(seen)
    for request, means in slice_requests:
        rule, error = rule_of_request(request)
        for m, want, err in zip(means, rule, error):
            gate = 3.0 * m.std_error + err + ROUNDING * (1.0 + abs(want))
            assert abs(m.value - want) <= gate, (request[1], m, want, err)


def _gated_rows(spec, batch):
    """{row name: [(value, gate) per radius]} of the 3σ-gated rows of one run
    of spec's command, its Monte-Carlo means taken from ``batch`` in place
    of mean_batch: the arbiter's best residual, fmt-check's form-3
    residuals against their reported three_sigma, and the algebra suite's
    rows whose gate is Monte-Carlo.  An equality row's value is |difference|."""
    rows = {}

    def recording(make_row):
        def row(name, values, gates=None):
            if gates is not None:
                rows[name] = list(zip(values, gates))
            return make_row(name, values, gates)
        return row

    with mock.patch.object(sph_integral, "mean_batch", batch), \
            mock.patch.object(nevanlinna, "mean_batch", batch), \
            mock.patch.object(nevanlinna, "_equality_row", recording(nevanlinna._equality_row)), \
            mock.patch.object(nevanlinna, "_inequality_row", recording(nevanlinna._inequality_row)):
        if spec.command == "arbiter":
            rep = nevanlinna.counting_arbiter(spec.function, spec.r, spec.integrator)
            rows["best_residual"] = [(rep.residual(rep.best_order), rep.three_sigma)]
        elif spec.command == "fmt-check":
            rep = nevanlinna.verify_fmt(spec.function, spec.a, spec.radii, spec.integrator, 3)
            rows["form3_residual"] = [(row["residual"], row["three_sigma"]) for row in rep["rows"]]
        else:
            _COMMANDS[spec.command].runner(spec)
    return rows


def _rule_batch(requests, cfg):
    """mean_batch with each mean replaced by its θ-rule value and σ = 0."""
    out = []
    for request in requests:
        assert request[0] is None or request[2:] == (True,), "the rule needs a slice-law column"
        out.append([SphericalMean(float(v), 0.0, cfg.samples, 0) for v in rule_of_request(request)[0]])
    return out


if __name__ == "__main__" and sys.argv[1:2] == ["zscores"]:
    # z-scores of every 3σ-gated row against the θ-rule, over many seeds:
    #
    #     PYTHONPATH=src python tests/test_sph_integral.py zscores [seeds]
    #
    # For the defaults of arbiter, fmt-check (form 3) and algebra-suite, and
    # algebra-suite on the real rational (q² + 0.3)/(q² − 0.2q + 0.3), at
    # --samples 2000 and seeds 1 to 200 (or the number given), each row's
    # per-radius z = (value − rule value)/(gate/3) is pooled; a calibrated
    # gate misses |value − rule value| ≤ gate on about 0.27% of them.  An
    # equality row's value is |difference| and its rule value about 0, so its
    # z is a half-normal (mean 0.80, sd 0.60).  A row whose gate is at the
    # rounding of its value (sandwich_upper of a real f, which is log 2 at
    # every point) has no meaningful z and is named as such.  About 30 s on
    # one core.
    import contextlib
    import io
    import types
    from dataclasses import replace

    from quatnev.cli import build_spec

    seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    hard = SemiregularRational(RealPoly([0.3, 0.0, 1.0]), RealPoly([0.3, -0.2, 1.0]))
    cases = []
    for command in ("arbiter", "fmt-check", "algebra-suite"):
        args = types.SimpleNamespace(config=None, seed=None, samples=2000, out=None, format=None)
        cases.append((command, build_spec(command, args)))
    cases.append(("algebra-suite/real-rational",
                  replace(cases[-1][1], inputs={**cases[-1][1].inputs, "function": hard})))
    print(f"{'case':28s} {'row':26s} {'n':>5s} {'z mean':>7s} {'z sd':>6s} {'miss':>7s}")
    for label, spec in cases:
        with contextlib.redirect_stdout(io.StringIO()):
            exact = _gated_rows(spec, _rule_batch)
            runs = [_gated_rows(replace(spec, integrator=IntegratorConfig(samples=2000, seed=seed)),
                                mean_batch)
                    for seed in range(1, seeds + 1)]
        for name, want in exact.items():
            pairs = [(value - rule, gate)
                     for run in runs for (value, gate), (rule, _g) in zip(run[name], want)]
            if max(gate for _d, gate in pairs) <= ROUNDING * max(1.0, *(abs(r) for r, _g in want)):
                print(f"{label:28s} {name:26s} {len(pairs):5d}   gate at the rounding of the value")
                continue
            z = np.array([d / (gate / 3.0) for d, gate in pairs])
            print(f"{label:28s} {name:26s} {len(z):5d} {z.mean():+7.2f} {z.std():6.2f} "
                  f"{np.mean(np.abs(z) > 3.0):7.2%}")
elif __name__ == "__main__":
    # Minor page faults and wall time of one mean_batch walk at the default
    # 300 000 samples, per kind of column: (log|f|, log|f∘S_{f−a}|) of a
    # LeftPoly and of a quaternion-denominator rational, and log|f| of a
    # RealPoly.  Each is walked once to warm up, then measured.
    import resource
    import time

    def _columns(f, a, r):
        thr = f.near_zero_log(r)

        def columns(pts):
            se = f.stems(pts)
            la = se.log_abs()
            if a is None:
                return la[:, None], se.ok & (la >= thr)
            lat, ok_t = se.log_abs_twisted(a)
            return np.stack([la, lat], axis=1), se.ok & ok_t & (la >= thr) & (lat >= thr)

        return columns

    target = Quaternion(0.5, 0.1, 0.0, 0.0)
    walks = [("leftpoly twisted", _BLOCK_FUNCTIONS[1], target),
             ("quaternion-denominator rational twisted", _BLOCK_FUNCTIONS[2], target),
             ("realpoly log|f|", _BLOCK_FUNCTIONS[0], None)]
    for name, f, a in walks:
        request = [(_columns(f, a, 1.3), 1.3)]
        mean_batch(request, IntegratorConfig())
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        mean_batch(request, IntegratorConfig())
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(f"{name}: {faults} minor faults, {seconds:.3f} s")
