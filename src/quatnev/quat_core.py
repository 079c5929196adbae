"""Quaternion arithmetic, slice/sphere coordinates, and uniform 3-sphere sampling.

Quaternions q = w + xi + yj + zk are represented two ways:

* as immutable :class:`Quaternion` values for scalar work, and
* as ``(n, 4)`` float64 arrays (columns w, x, y, z) for vectorized batch work;
  the ``q*``-prefixed module functions operate on the array form.

Point batches have ``(4, n)`` storage and an ``(n, 4)`` view: each batch is a
C-order ``(4, n)`` array handed out as its transpose, so the (n, 4) shape
callers see is kept while every component w, x, y, z is one contiguous row.
The kernels write their results in that layout, row by row.  :func:`qdot`
sums its rows in the order NumPy 2.4's einsum sums a short row in its two
SIMD lanes, (x₀y₀ + x₂y₂) + (x₁y₁ + x₃y₃), and |Im q|² as (x² + z²) + y², so
every norm has the bits that einsum gives on a C-order (n, 4) array.

Every point q = u + I v (u real, v = |Im q| >= 0, I a unit imaginary) lies on
the 2-sphere S_{u+Iv}; :class:`SliceComplex` is the canonical (u, v) key of
that sphere, and :func:`slice_uv` and :func:`slice_units` extract (u, v) and
I for sample batches.  A :class:`SlicePoints` batch computes its (u, v),
u + iv and I on first read and keeps them for as long as the batch lives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivisionByZero",
    "Quaternion",
    "SliceComplex",
    "SlicePoints",
    "SphereSampler",
    "BLOCK",
    "CHUNK",
    "mul",
    "qmul",
    "qconj",
    "qdot",
    "qnorm",
    "slice_points",
    "slice_units",
    "slice_uv",
]

#: samples per RNG chunk; the sample stream is a pure function of
#: (seed, stream_index, chunk_index) so any prefix of a run is reproducible.
CHUNK = 65536

#: rows of a block: Gaussians are drawn, and Monte-Carlo columns evaluated,
#: BLOCK rows at a time; divides CHUNK.
BLOCK = 8192

_MASK64 = (1 << 64) - 1


class DivisionByZero(ZeroDivisionError):
    """Inverse of the zero quaternion (or a zero divisor in batch form)."""


# ---------------------------------------------------------------------------
# scalar value type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion value q = w + xi + yj + zk."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        for c in (self.w, self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError(f"quaternion components must be finite, got {c!r}")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_array(a) -> "Quaternion":
        w, x, y, z = (float(c) for c in np.asarray(a, dtype=float).reshape(4))
        return Quaternion(w, x, y, z)

    @staticmethod
    def from_complex(z: complex) -> "Quaternion":
        """Embed re + i*im into the i-slice."""
        return Quaternion(z.real, z.imag, 0.0, 0.0)

    # -- views ------------------------------------------------------------

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @property
    def re(self) -> float:
        return self.w

    @property
    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def abs_im(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_real(self) -> bool:
        return self.abs_im() == 0.0

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Quaternion | float | int") -> "Quaternion":
        o = _coerce(other)
        return Quaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other: "Quaternion | float | int") -> "Quaternion":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Quaternion | float | int") -> "Quaternion":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Quaternion | float | int") -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return mul(self, other)

    def __rmul__(self, other: "Quaternion | float | int") -> "Quaternion":
        if isinstance(other, (int, float)):
            return self * other
        return mul(_coerce(other), self)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def _norm2(self) -> float:
        """w² + x² + y² + z², or inf where it overflows."""
        try:
            return self.w**2 + self.x**2 + self.y**2 + self.z**2
        except OverflowError:
            return math.inf

    def norm(self) -> float:
        n2 = self._norm2()
        if n2 == math.inf or n2 < sys.float_info.min:
            return math.hypot(self.w, self.x, self.y, self.z)
        return math.sqrt(n2)

    def inverse(self) -> "Quaternion":
        n2 = self._norm2()
        if n2 == math.inf or n2 < sys.float_info.min:
            big = max(map(abs, (self.w, self.x, self.y, self.z)))
            if big == 0.0:
                raise DivisionByZero("inverse of zero quaternion")
            # q⁻¹ = 2^−e·(2^−e·q)⁻¹, and 2^−e·q has its largest component in [½, 1)
            e = math.frexp(big)[1]
            s = Quaternion(*(math.ldexp(c, -e) for c in (self.w, self.x, self.y, self.z)))
            return Quaternion(*(math.ldexp(c, -e) for c in s.inverse().to_array()))
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __abs__(self) -> float:
        return self.norm()


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    if isinstance(v, complex):
        return Quaternion.from_complex(v)
    return Quaternion.from_array(v)


def _check_radius(r) -> None:
    """Raise ValueError unless 0 < r < ∞; a NaN radius is refused too."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product pq."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


# ---------------------------------------------------------------------------
# sphere / slice coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceComplex:
    """Canonical key (re, im) of the 2-sphere S_{re + im*I}, with im >= 0.

    A real point is the degenerate sphere with im == 0.  The constructor
    canonicalizes, so z and conj(z) produce equal values.
    """

    re: float
    im: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", abs(float(self.im)))

    @property
    def is_real(self) -> bool:
        return self.im == 0.0

    def modulus(self) -> float:
        return math.hypot(self.re, self.im)


# ---------------------------------------------------------------------------
# vectorized (n, 4) kernels on (4, n) storage
# ---------------------------------------------------------------------------


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (n, 4) arrays, or of a (4,) quaternion and an (n, 4) array.

    Leading axes broadcast, and the result is the transpose of its (4, …)
    storage: (1, m, 4) times (n, 1, 4) gives (m, n, 4).  Each of the four
    rows of the (4, n)-stored result is the scalar formula, its products
    summed left to right.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    w = aw * bw - ax * bx - ay * by - az * bz
    out = np.empty((4, *w.shape))
    out[0] = w
    out[1] = aw * bx + ax * bw + ay * bz - az * by
    out[2] = aw * by - ax * bz + ay * bw + az * bx
    out[3] = aw * bz + ax * by - ay * bx + az * bw
    return out.T


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dots Σ x_i·y_i of (..., 4) or (..., 3) arrays, with einsum's bits.

    NumPy's einsum("...i,...i->...") sums a short row in two SIMD lanes,
    the even-indexed products in one and the odd-indexed in the other, then
    adds the lanes into a zero output.  This sums the rows of (4, n)
    storage in that order: (x₀y₀ + x₂y₂) + (x₁y₁ + x₃y₃) for quaternions and
    (x₀y₀ + x₂y₂) + x₁y₁ for imaginary parts; the closing + 0.0 turns a −0
    into einsum's +0.  Products that overflow or underflow do so silently,
    as inside einsum.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = x[..., 0] * y[..., 0] + x[..., 2] * y[..., 2]
        odd = x[..., 1] * y[..., 1]
        if x.shape[-1] == 4:
            odd += x[..., 3] * y[..., 3]
        out += odd
        out += 0.0
    return out


def qnorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(qdot(a, a))


def slice_uv(pts: np.ndarray):
    """Slice coordinates (u, v) of a batch: u = Re q and v = |Im q| >= 0."""
    pts = np.asarray(pts, dtype=float)
    im = pts[..., 1:]
    return pts[..., 0].copy(), np.sqrt(qdot(im, im))


def slice_units(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit imaginaries I of an (n, 4) batch whose imaginary moduli are v.

    Each point is q = u + I v.  Where v = 0 the sphere S_q is the point u
    and any I is valid; there I is the fixed fallback i.  I has (4, n)
    storage, and its three imaginary rows are divided by v at once.
    """
    rows = np.asarray(pts, dtype=float).T
    real = v <= 0.0
    I = np.zeros(rows.shape)
    np.divide(rows[1:], np.where(real, 1.0, v), out=I[1:])
    I[1:, real] = ((1.0,), (0.0,), (0.0,))
    return I.T


class SlicePoints(np.ndarray):
    """A read-only (n, 4) point batch that carries its slice moduli.

    The batch is the (n, 4) view of C-order (4, n) storage, so pts[:, i]
    and pts.T[i] are contiguous rows; slice_points makes that layout.
    (u, v), z = u + iv and the unit imaginaries I are each computed on
    first read, by slice_uv and slice_units, and kept read-only on the
    batch, so every stem evaluation of one batch shares them and they die
    with it.  A batch made by ``conjugate_of`` reads (u, v) and z from its
    source, which it shares bit for bit: negating Im q leaves Re q and
    |Im q| unchanged.  It forms its own I, which is −I off the real axis.
    Arrays derived from a batch (slices, arithmetic) start with nothing
    computed.
    """

    def __array_finalize__(self, obj):
        self._uv = self._z = self._I = self._source = None

    @property
    def uv(self):
        """(u, v), computed once."""
        if self._uv is None:
            if self._source is not None:
                self._uv = self._source.uv
            else:
                self._uv = _read_only(*slice_uv(self))
        return self._uv

    @property
    def z(self) -> np.ndarray:
        """u + iv as one complex array, computed once."""
        if self._z is None:
            if self._source is not None:
                self._z = self._source.z
            else:
                u, v = self.uv
                (self._z,) = _read_only(u + 1j * v)
        return self._z

    @property
    def I(self) -> np.ndarray:
        """The unit imaginaries, an (n, 4) view of (4, n) storage, computed once."""
        if self._I is None:
            (self._I,) = _read_only(slice_units(self, self.uv[1]))
        return self._I

    @staticmethod
    def conjugate_of(pts: "SlicePoints") -> "SlicePoints":
        """The read-only batch of conjugate points, sharing (u, v) and z with pts."""
        out = qconj(pts).view(SlicePoints)
        out.setflags(write=False)
        out._source = pts
        return out


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def slice_points(pts) -> SlicePoints:
    """pts itself when it is a read-only SlicePoints, else a read-only copy as one.

    The copy has (4, n) storage: it is F-order in its (n, 4) shape.
    """
    if isinstance(pts, SlicePoints) and not pts.flags.writeable:
        return pts
    out = np.array(pts, dtype=float, order="F").view(SlicePoints)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereSampler:
    """Deterministic Gaussian stream for uniform sampling of 3-spheres.

    Each point draws 4 standard normals from a counter-based Philox stream
    (Salmon et al., SC 2011); scaled to radius r the vector is uniform on
    ∂B_r by rotational symmetry of the Gaussian.  The stream is a pure
    function of (seed, stream_index, chunk_index), so any prefix of a run
    is reproducible, and disjoint stream_index values give independent
    substreams.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def chunk(self, chunk_index: int, out=None, scratch=None):
        """Philox Gaussians of chunk number ``chunk_index`` and their row norms.

        Returns (g, n): g is a (CHUNK, 4) array of standard normals keyed by
        (seed, stream_index, chunk_index) and n its row norms, with an exact
        zero row's norm set to 1.  g is the Philox (CHUNK, 4) draw itself,
        stored transposed as (4, CHUNK) rows and handed out as the (CHUNK, 4)
        view.  The points of the chunk on ∂B_r are (g.T * (r / n)).T, in the
        same layout, for every radius r.

        The draw is written into ``out``, a C-order (4, CHUNK) array, and
        read BLOCK rows at a time through ``scratch``, a C-order (BLOCK, 4)
        array; each is allocated afresh when not given.  A caller that draws
        many chunks passes the same two arrays each time, so no chunk
        touches new memory; g is then a view of ``out``, valid until the
        next draw into it.
        """
        if chunk_index < 0:
            raise ValueError("chunk_index must be >= 0")
        key = np.array(
            [self.seed & _MASK64, ((self.stream_index << 32) ^ chunk_index) & _MASK64],
            dtype=np.uint64,
        )
        rng = np.random.Generator(np.random.Philox(key=key))
        g = np.empty((4, CHUNK)) if out is None else out
        block = np.empty((BLOCK, 4)) if scratch is None else scratch
        # the stream is sequential: (CHUNK, 4) drawn in blocks of rows has the
        # same bits, and each block is written transposed with no full copy
        for start in range(0, CHUNK, BLOCK):
            rng.standard_normal(out=block)
            g[:, start:start + BLOCK] = block.T
        g = g.T
        n = qnorm(g)
        # a 4-vector of exact zeros has probability 0; guard anyway
        n[n == 0.0] = 1.0
        return g, n
