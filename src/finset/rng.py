"""Deterministic seedable uniform stream and the samplers built on it.

The generator is pinned project-wide to counter-based SplitMix64: the i-th
variate depends only on (seed, i), so scalar and vectorized draws agree
bit-for-bit and golden test vectors are portable. Gaussian draws use
Box-Muller; Gamma draws use a sum of exponentials for integer shapes and
Marsaglia-Tsang acceptance sampling otherwise. Everything consumes uniforms
from one explicit stream, so runs are reproducible from the seed alone.

Because a variate depends only on its stream's seed and position, R streams
that advance in lockstep draw as one (R, k) array: ``uniform_rows`` is the
one SplitMix64 kernel, and ``normals`` and ``gammas`` take either one stream
or a sequence of streams, one output row each.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .partition import ValidationError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(b) for b in (11, 27, 30, 31))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """SplitMix64 uniform stream over [0, 1).

    Single-owner: concurrent tasks must each derive their own stream via
    :meth:`spawn`. ``draws`` counts uniforms consumed so far, which the
    resampling tests use to pin each scheme's exact consumption.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._count = 0

    @property
    def draws(self) -> int:
        return self._count

    def next_uniform(self) -> float:
        self._count += 1
        z = (self.seed + self._count * _GOLDEN) & _MASK
        return (_mix(z) >> 11) * _INV_2_53

    def next_uniforms(self, k: int) -> np.ndarray:
        """k uniforms as a float64 array; identical to k scalar draws."""
        return uniform_rows((self,), k)[0]

    def spawn(self, key: int) -> "RngStream":
        """Derive an independent child stream from this stream's seed."""
        child = _mix((self.seed ^ _mix((int(key) + 1) * _GOLDEN & _MASK)) & _MASK)
        return RngStream(child)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, draws={self._count})"


def uniform_rows(rngs, k: int) -> np.ndarray:
    """The next k uniforms of each stream in rngs, as a (len(rngs), k) array.

    Row r is what ``rngs[r].next_uniforms(k)`` would return, and every
    stream advances by k.
    """
    k = _check_size(k)
    seeds = np.array([g.seed for g in rngs], dtype=np.uint64)
    first = np.array([g._count + 1 for g in rngs], dtype=np.uint64)
    for g in rngs:
        g._count += k
    z = first[:, None] + np.arange(k, dtype=np.uint64)
    z *= _U_GOLDEN  # in place: wrapping uint64 arithmetic, one array
    z += seeds[:, None]
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    z >>= _U11
    return z.astype(np.float64) * _INV_2_53


def _check_size(size) -> int:
    """size as an int; a size that is not an integer would desync the stream."""
    try:
        size = operator.index(size)
    except TypeError:
        raise ValidationError(f"size must be an integer, got {size!r}") from None
    if size < 0:
        raise ValidationError(f"size must be nonnegative, got {size}")
    return size


def _uniforms(rng, k: int) -> np.ndarray:
    """k uniforms from one stream, or a (R, k) array from a sequence of R streams."""
    return rng.next_uniforms(k) if isinstance(rng, RngStream) else uniform_rows(rng, k)


def normals(rng, size: int) -> np.ndarray:
    """size standard-normal draws via Box-Muller (2*ceil(size/2) uniforms).

    rng is one stream, or a sequence of R streams for an (R, size) array
    whose row r is ``normals(rng[r], size)``.
    """
    size = _check_size(size)
    pairs = (size + 1) // 2
    u = _uniforms(rng, 2 * pairs)
    u1, u2 = u[..., :pairs], u[..., pairs:]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log is safe
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :size]


def gammas(rng, shape: float, scale: float, size: int) -> np.ndarray:
    """size Gamma(shape, scale) draws (scale parametrization, mean shape*scale).

    rng is one stream, or a sequence of R streams for an (R, size) array
    whose row r is ``gammas(rng[r], shape, scale, size)``.
    """
    if not (0 < shape < math.inf and 0 < scale < math.inf):
        raise ValidationError(f"shape and scale must be finite and positive, "
                              f"got {shape!r} and {scale!r}")
    size = _check_size(size)
    if float(shape).is_integer():
        # sum of `shape` exponentials, fully vectorized
        k = int(shape)
        u = _uniforms(rng, k * size)
        u = u.reshape(u.shape[:-1] + (k, size))
        return -scale * np.log1p(-u).sum(axis=-2)
    if not isinstance(rng, RngStream):
        # Marsaglia-Tsang draws a varying number of uniforms: stream by stream
        return np.array([gammas(g, shape, scale, size) for g in rng]).reshape(len(rng), size)
    return np.array([_gamma_one(rng, float(shape)) * scale for _ in range(size)])


def _gamma_one(rng: RngStream, shape: float) -> float:
    # Marsaglia-Tsang; the shape < 1 case boosts from shape + 1.
    if shape < 1.0:
        u = rng.next_uniform()
        while u <= 0.0:
            u = rng.next_uniform()
        return _gamma_one(rng, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = float(normals(rng, 1)[0])
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.next_uniform()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v
