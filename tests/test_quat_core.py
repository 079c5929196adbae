"""Quaternion arithmetic, slice decomposition, and sphere sampling.

Algebraic identities are property-tested with hypothesis; the sampler
checks pin the reproducibility contract (bitwise prefix stability,
stream separation, exact radius).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatnev.quat_core import (
    BLOCK,
    CHUNK,
    DivisionByZero,
    Quaternion,
    SliceComplex,
    SlicePoints,
    SphereSampler,
    mul,
    qconj,
    qdot,
    qmul,
    qnorm,
    slice_points,
    slice_units,
    slice_uv,
)

ATOL = 1e-12
COMPONENT = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def quats():
    return st.builds(Quaternion, COMPONENT, COMPONENT, COMPONENT, COMPONENT)


def nonzero_quats(floor: float = 0.1):
    return quats().filter(lambda q: abs(q) > floor)


# ---------------------------------------------------------------------------
# Hamilton product table
# ---------------------------------------------------------------------------

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (I, J, K),
        (J, K, I),
        (K, I, J),
        (J, I, -K),
        (I, I, -ONE),
        (J, J, -ONE),
        (K, K, -ONE),
    ],
)
def test_hamilton_table(p, q, expected):
    got = mul(p, q)
    assert (got - expected).norm() <= 0.0, f"{p} * {q} = {got}, expected {expected}"


def test_product_is_noncommutative():
    assert (mul(I, J) + mul(J, I)).norm() <= 0.0


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


@given(quats(), quats())
@settings(max_examples=200)
def test_norm_is_multiplicative(p, q):
    lhs = abs(p * q)
    rhs = abs(p) * abs(q)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs), f"|pq| = {lhs} but |p||q| = {rhs}"


@given(quats(), quats())
@settings(max_examples=200)
def test_conjugation_reverses_products(p, q):
    lhs = (p * q).conj()
    rhs = q.conj() * p.conj()
    assert (lhs - rhs).norm() <= ATOL, f"conj(pq) = {lhs}, conj(q)conj(p) = {rhs}"


@given(nonzero_quats())
@settings(max_examples=200)
def test_inverse_cancels(q):
    prod = q * q.inverse()
    assert (prod - ONE).norm() <= 1e-9, f"q * q⁻¹ = {prod} for q = {q}"


@given(quats())
@settings(max_examples=200)
def test_real_imaginary_split(q):
    recomposed = Quaternion(q.re, 0, 0, 0) + q.im
    assert (recomposed - q).norm() <= 0.0, f"re + im failed to recompose {q}"
    assert q.im.re == 0.0


@given(quats().filter(lambda q: q.abs_im() > 0.1))
@settings(max_examples=200)
def test_unit_imaginary_squares_to_minus_one(q):
    unit = q.im * (1.0 / q.abs_im())
    sq = unit * unit
    assert (sq + ONE).norm() <= 1e-9, f"I² = {sq} for I from {q}"


@given(quats())
@settings(max_examples=200)
def test_norm_from_conjugate(q):
    prod = q * q.conj()
    assert abs(prod.re - q.norm() ** 2) <= 1e-9 * (1.0 + q.norm() ** 2)
    assert prod.im.norm() <= 1e-9 * (1.0 + q.norm() ** 2)


def test_zero_inverse_raises():
    with pytest.raises(DivisionByZero):
        Quaternion(0, 0, 0, 0).inverse()


@pytest.mark.parametrize("s", [1e-170, 1e160, 1e300])
def test_norm_and_inverse_do_not_overflow_where_the_squares_do(s):
    """The squares overflow at 1e160 and 1e300, and underflow at 1e-170."""
    q =Quaternion(0.6 * s, -0.8 * s, 0.0, 0.0)
    assert math.isclose(q.norm(), s, rel_tol=1e-15)
    assert math.isclose((q.inverse() * q).w, 1.0, rel_tol=1e-15)
    assert (q.inverse() - Quaternion(0.6, 0.8, 0.0, 0.0) * (1.0 / s)).norm() <= 1e-15 / s


def test_norm_and_inverse_keep_their_bits_where_the_squares_are_finite():
    rng = np.random.default_rng(8)
    for row in rng.standard_normal((2000, 4)) * 10.0 ** rng.integers(-5, 6, size=(2000, 1)):
        q = Quaternion.from_array(row)
        n2 = q.w**2 + q.x**2 + q.y**2 + q.z**2
        assert q.norm() == math.sqrt(n2)
        assert q.inverse() == Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)


# ---------------------------------------------------------------------------
# Sphere keys and slice coordinates
# ---------------------------------------------------------------------------


def test_slice_complex_canonicalizes_sign():
    assert SliceComplex(1.0, -2.0) == SliceComplex(1.0, 2.0)
    assert SliceComplex(0.5, 0.0).is_real
    assert math.isclose(SliceComplex(3.0, 4.0).modulus(), 5.0, rel_tol=0, abs_tol=0)


def test_slice_coords_reconstructs_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((64, 4))
    pts[5, 1:] = 0.0  # a real point takes the fallback I = i
    u, v = slice_uv(pts)
    units = slice_units(pts, v)
    assert np.all(v >= 0.0)
    assert np.array_equal(units[5], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(qnorm(units), 1.0, atol=ATOL) and np.all(units[:, 0] == 0.0)
    rebuilt = np.empty_like(pts)
    rebuilt[:, 0] = u
    rebuilt[:, 1:] = units[:, 1:] * v[:, None]
    assert np.allclose(rebuilt, pts, atol=ATOL), "u + I v must rebuild q"


def test_slice_points_share_one_frame_equal_to_slice_coords():
    raw = np.random.default_rng(5).standard_normal((64, 4))
    raw[7, 1:] = 0.0
    pts = slice_points(raw)
    assert not pts.flags.writeable and slice_points(pts) is pts
    u, v = slice_uv(raw)
    assert pts.uv is pts.uv and pts.z is pts.z
    for got, want in zip((*pts.uv, pts.z), (u, v, u + 1j * v)):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    # a derived array computes its own frame
    head = pts[:5]
    assert head.uv is not pts.uv and head.uv[0].tobytes() == u[:5].tobytes()


def test_conjugate_batch_shares_moduli_bitwise():
    pts = slice_points(np.random.default_rng(6).standard_normal((64, 4)))
    conj_pts = SlicePoints.conjugate_of(pts)
    assert not conj_pts.flags.writeable
    assert conj_pts.tobytes() == qconj(pts).tobytes()
    assert conj_pts.uv is pts.uv and conj_pts.z is pts.z
    u, v = slice_uv(qconj(pts))
    assert (u.tobytes(), v.tobytes()) == tuple(a.tobytes() for a in conj_pts.uv)


# ---------------------------------------------------------------------------
# Vectorized kernels agree with scalar arithmetic
# ---------------------------------------------------------------------------


def _qmul_stacked(a, b):
    """The Hamilton product as the (n, 4) formula stacked four columns."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _einsum_dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _slice_units_columns(pts, v):
    """Unit imaginaries formed column-wise on a C-order (n, 4) batch."""
    real = v <= 0.0
    I = np.zeros_like(pts)
    I[..., 1:] = pts[..., 1:] / np.where(real, 1.0, v)[..., None]
    I[real, 1:] = (1.0, 0.0, 0.0)
    return I


def _hard_batches():
    """Two C-order (n, 4) batches with rows of every kind the kernels meet."""
    rng = np.random.default_rng(12)
    a, b = (rng.standard_normal((301, 4)) * 10.0 ** rng.integers(-3, 4, size=(301, 4))
            for _ in range(2))
    a[3, 1:] = 0.0                                  # a real point, v = 0
    b[4] = 0.0
    a[5] = 1e-310 * rng.standard_normal(4)          # subnormal rows
    b[6, 1:] = 1e-310
    a[7] = 1e160 * rng.standard_normal(4)           # rows whose squares overflow
    b[8] = -1e160
    a[9], b[9] = -1e-200, 1e-200                    # products that underflow to −0
    return a, b


def _bits(x):
    return np.asarray(x).tobytes()


def _layouts(x):
    """x as a C-order (n, 4) array and as the (n, 4) view of (4, n) storage."""
    return x, np.ascontiguousarray(x.T).T


def test_qmul_has_the_bits_of_the_stacked_formula():
    a, b = _hard_batches()
    with np.errstate(over="ignore"):
        want = _qmul_stacked(a, b)
        for x in _layouts(a):
            for y in _layouts(b):
                got = qmul(x, y)
                assert _bits(got) == _bits(want) and got.T.flags.c_contiguous
        # the (4,) × (k, 4) broadcast of star_mul and scale_left
        assert _bits(qmul(a[0], b[:9])) == _bits(_qmul_stacked(a[0], b[:9]))
        assert _bits(qmul(a[0], b[1])) == _bits(_qmul_stacked(a[0], b[1]))


def test_row_dots_have_the_bits_of_einsum():
    a, b = _hard_batches()
    assert _bits(_einsum_dot(a[9], b[9])) == _bits(0.0)  # einsum's +0, not −0
    for x in _layouts(a):
        for y in _layouts(b):
            assert _bits(qdot(x, y)) == _bits(_einsum_dot(a, b))
        assert _bits(qdot(x, x)) == _bits(_einsum_dot(a, a))
        assert _bits(qnorm(x)) == _bits(np.sqrt(_einsum_dot(a, a)))
        assert np.isinf(qnorm(x)[7]), "an overflowing row comes back inf, silently"
        u, v = slice_uv(x)
        assert _bits(u) == _bits(a[:, 0].copy())
        assert _bits(v) == _bits(np.sqrt(_einsum_dot(a[:, 1:], a[:, 1:])))
        assert _bits(qdot(x[:, 1:], x[:, 1:])) == _bits(_einsum_dot(a[:, 1:], a[:, 1:]))


def test_slice_units_have_the_bits_of_the_column_formula():
    a, _b = _hard_batches()
    _u, v = slice_uv(a)
    want = _slice_units_columns(a, v)
    for x in _layouts(a):
        got = slice_units(x, v)
        assert _bits(got) == _bits(want) and got.T.flags.c_contiguous
    assert _bits(slice_units(a, v)[3]) == _bits(np.array([0.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("seed, stream, chunk", [(2026, 0, 0), (7, 3, 11), (2**63 + 5, 1, 2)])
def test_gaussian_chunk_stores_the_philox_draw_transposed(seed, stream, chunk):
    key = np.array([seed & (2**64 - 1), ((stream << 32) ^ chunk) & (2**64 - 1)], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal((CHUNK, 4))
    want_n = np.sqrt(np.einsum("ij,ij->i", want, want))
    g, n = SphereSampler(seed, stream).chunk(chunk)
    assert g.shape == (CHUNK, 4) and g.T.flags.c_contiguous
    assert _bits(g) == _bits(want) and _bits(n) == _bits(want_n)


@pytest.mark.parametrize("seed, stream, chunk", [(2026, 0, 0), (7, 3, 11), (2**63 + 5, 1, 2)])
def test_gaussian_chunk_into_supplied_buffers_has_the_bits_of_a_fresh_draw(seed, stream, chunk):
    want_g, want_n = SphereSampler(seed, stream).chunk(chunk)
    out, scratch = np.empty((4, CHUNK)), np.empty((BLOCK, 4))
    SphereSampler(seed + 1, stream).chunk(chunk, out=out, scratch=scratch)  # a stale draw first
    g, n = SphereSampler(seed, stream).chunk(chunk, out=out, scratch=scratch)
    assert np.shares_memory(g, out) and g.shape == (CHUNK, 4)
    assert _bits(g) == _bits(want_g) and _bits(n) == _bits(want_n)


def test_batch_kernels_match_scalar_ops():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((32, 4))
    b = rng.standard_normal((32, 4))
    prod = qmul(a, b)
    for i in range(len(a)):
        want = Quaternion.from_array(a[i]) * Quaternion.from_array(b[i])
        assert (Quaternion.from_array(prod[i]) - want).norm() <= ATOL, f"row {i} mismatch"
    assert np.allclose(qnorm(a), [abs(Quaternion.from_array(r)) for r in a], atol=ATOL)
    assert np.allclose(qconj(a)[:, 0], a[:, 0]) and np.allclose(qconj(a)[:, 1:], -a[:, 1:])


# ---------------------------------------------------------------------------
# Sphere sampler reproducibility contract
# ---------------------------------------------------------------------------


def sphere_points(r, seed, n, stream_index=0):
    """The first n points on ∂B_r of a (seed, stream_index) stream, as an (n, 4) array.

    Chunk after chunk of SphereSampler draws, each scaled to r as
    mean_batch scales its blocks.
    """
    sampler = SphereSampler(seed, stream_index)
    chunks = [(g.T * (r / norms)).T for g, norms in map(sampler.chunk, range(-(-n // CHUNK)))]
    return np.concatenate(chunks, axis=0)[:n]


def test_sampler_points_lie_on_the_sphere():
    pts = sphere_points(2.0, 11, 4096)
    assert np.abs(qnorm(pts) - 2.0).max() <= 1e-12 * 2.0


def test_sampler_prefix_stability():
    """The stream past a chunk boundary is the next chunk, drawn alone by its key."""
    short = sphere_points(1.5, 11, 10)
    long = sphere_points(1.5, 11, CHUNK + 77)
    assert np.array_equal(short, long[:10]), "first draws must not depend on n"
    g, n = SphereSampler(11).chunk(1)
    assert np.array_equal(long[CHUNK:], (g[:77].T * (1.5 / n[:77])).T)


def test_sampler_streams_are_distinct_and_deterministic():
    a0, _ = SphereSampler(5, stream_index=0).chunk(0)
    a1, _ = SphereSampler(5, stream_index=1).chunk(0)
    b0, _ = SphereSampler(5, stream_index=0).chunk(0)
    assert np.array_equal(a0, b0), "same seed/stream must be bitwise reproducible"
    assert not np.array_equal(a0, a1), "streams must decorrelate"


def test_sampler_mean_is_near_zero():
    pts = sphere_points(1.0, 23, 200_000)
    assert np.abs(pts.mean(axis=0)).max() < 5e-3, "uniform sphere mean ≈ 0"
