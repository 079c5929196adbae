"""Quaternion arithmetic, slice/sphere coordinates, and uniform 3-sphere sampling.

Quaternions q = w + xi + yj + zk are represented two ways:

* as immutable :class:`Quaternion` values for scalar work, and
* as ``(n, 4)`` float64 arrays (columns w, x, y, z) for vectorized batch work;
  the ``q*``-prefixed module functions operate on the array form.

Every point q = u + I v (u real, v = |Im q| >= 0, I a unit imaginary) lies on
the 2-sphere S_{u+Iv}; :class:`SliceComplex` is the canonical (u, v) key of
that sphere, and :func:`slice_uv` and :func:`slice_units` extract (u, v) and
I for sample batches.  A :class:`SlicePoints` batch computes its (u, v) and
u + iv on first read and keeps them for as long as the batch lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivisionByZero",
    "Quaternion",
    "SliceComplex",
    "SlicePoints",
    "SphereSampler",
    "CHUNK",
    "gaussian_chunk",
    "mul",
    "conj",
    "norm",
    "inverse",
    "sphere_of",
    "embed",
    "qmul",
    "qconj",
    "qnorm",
    "qinv",
    "qnormalize",
    "slice_points",
    "slice_units",
    "slice_uv",
]

#: samples per RNG chunk; the sample stream is a pure function of
#: (seed, stream_index, chunk_index) so any prefix of a run is reproducible.
CHUNK = 65536

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

    def is_real(self, tol: float = 0.0) -> bool:
        return self.abs_im() <= tol

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

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def inverse(self) -> "Quaternion":
        n2 = self.w**2 + self.x**2 + self.y**2 + self.z**2
        if n2 == 0.0:
            raise DivisionByZero("inverse of zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def __abs__(self) -> float:
        return self.norm()

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - _coerce(other)).norm() <= tol


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    if isinstance(v, complex):
        return Quaternion.from_complex(v)
    return Quaternion.from_array(v)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product pq."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def conj(q: Quaternion) -> Quaternion:
    return q.conj()


def norm(q: Quaternion) -> float:
    return q.norm()


def inverse(q: Quaternion) -> Quaternion:
    return q.inverse()


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

    @staticmethod
    def from_complex(z: complex) -> "SliceComplex":
        return SliceComplex(z.real, abs(z.imag))


def sphere_of(q: Quaternion) -> SliceComplex:
    """Canonical sphere key of q: (Re q, |Im q|)."""
    return SliceComplex(q.w, q.abs_im())


def embed(s: SliceComplex, I: Quaternion) -> Quaternion:
    """Realize the sphere key s on the slice of the unit imaginary I.

    embed((u, v), I) = u + I*v.  I must satisfy Re I = 0 and |I| = 1
    (within 1e-12); sphere_of(embed(s, I)) == s for any such I.
    """
    if abs(I.w) > 1e-12 or abs(I.norm() - 1.0) > 1e-12:
        raise ValueError(f"embed requires a unit imaginary I, got {I}")
    return Quaternion(s.re, I.x * s.im, I.y * s.im, I.z * s.im)


# ---------------------------------------------------------------------------
# vectorized (n, 4) kernels
# ---------------------------------------------------------------------------


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (n,4) arrays (broadcasting over leading dims)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qnorm(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def qinv(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    n2 = np.einsum("...i,...i->...", a, a)
    if np.any(n2 == 0.0):
        raise DivisionByZero("inverse of zero quaternion in batch")
    return qconj(a) / n2[..., None]


def qnormalize(a: np.ndarray) -> np.ndarray:
    n = qnorm(a)
    if np.any(n == 0.0):
        raise DivisionByZero("normalize of zero quaternion in batch")
    return np.asarray(a, dtype=float) / n[..., None]


def slice_uv(pts: np.ndarray):
    """Slice coordinates (u, v) of a batch: u = Re q and v = |Im q| >= 0."""
    pts = np.asarray(pts, dtype=float)
    im = pts[..., 1:]
    return pts[..., 0].copy(), np.sqrt(np.einsum("...i,...i->...", im, im))


def slice_units(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit imaginaries I of a batch whose imaginary moduli are v.

    Each point is q = u + I v.  Where v = 0 the sphere S_q is the point u
    and any I is valid; there I is the fixed fallback i.
    """
    pts = np.asarray(pts, dtype=float)
    real = v <= 0.0
    I = np.zeros_like(pts)
    I[..., 1:] = pts[..., 1:] / np.where(real, 1.0, v)[..., None]
    I[real, 1:] = (1.0, 0.0, 0.0)
    return I


class SlicePoints(np.ndarray):
    """A read-only (n, 4) point batch that carries its slice moduli.

    (u, v) and z = u + iv are each computed on first read, by slice_uv, and
    kept read-only on the batch, so every stem evaluation of one batch
    shares them and they die with it.  A batch made by ``conjugate_of``
    reads them from its source, which it shares bit for bit: negating Im q
    leaves Re q and |Im q| unchanged.  Arrays derived from a batch (slices,
    arithmetic) start with nothing computed.
    """

    def __array_finalize__(self, obj):
        self._uv = self._z = self._source = None

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
    """pts itself when it is a read-only SlicePoints, else a read-only copy as one."""
    if isinstance(pts, SlicePoints) and not pts.flags.writeable:
        return pts
    out = np.array(pts, dtype=float).view(SlicePoints)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def gaussian_chunk(seed: int, stream_index: int, chunk_index: int):
    """Philox Gaussians of one chunk and their row norms.

    Returns (g, n): g is a (CHUNK, 4) array of standard normals keyed by
    (seed, stream_index, chunk_index) and n its row norms, with an exact
    zero row's norm set to 1.  The points of the chunk on ∂B_r are
    g * (r / n)[:, None] for every radius r.
    """
    key = np.array(
        [seed & _MASK64, ((stream_index << 32) ^ chunk_index) & _MASK64],
        dtype=np.uint64,
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_normal((CHUNK, 4))
    n = np.sqrt(np.einsum("ij,ij->i", g, g))
    # a 4-vector of exact zeros has probability 0; guard anyway
    n[n == 0.0] = 1.0
    return g, n


@dataclass(frozen=True)
class SphereSampler:
    """Deterministic uniform sampler on the 3-sphere of the given radius.

    Sampling draws 4 standard normals per point (counter-based Philox
    streams) and scales the vector to the radius, which is uniform on S^3 by
    rotational symmetry of the Gaussian.  The stream is a pure function of
    (seed, stream_index, sample_index): sample(n) is a bitwise prefix of
    sample(m) for n <= m, and disjoint stream_index values give independent
    substreams for parallel consumers.
    """

    radius: float
    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def _chunk(self, chunk_index: int) -> np.ndarray:
        g, n = gaussian_chunk(self.seed, self.stream_index, chunk_index)
        return g * (self.radius / n)[:, None]

    def sample(self, n: int) -> np.ndarray:
        """First n points of the stream as an (n, 4) array."""
        if n < 1:
            raise ValueError("need n >= 1 samples")
        chunks = [self._chunk(ci) for ci in range((n + CHUNK - 1) // CHUNK)]
        return np.concatenate(chunks, axis=0)[:n]

    def chunk(self, chunk_index: int) -> np.ndarray:
        """Chunk number ``chunk_index`` of the stream ((CHUNK, 4) array)."""
        if chunk_index < 0:
            raise ValueError("chunk_index must be >= 0")
        return self._chunk(chunk_index)
