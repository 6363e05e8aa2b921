"""Deterministic seedable uniform stream and the samplers built on it.

The generator is pinned project-wide to counter-based SplitMix64: the i-th
variate depends only on (seed, i), so scalar and vectorized draws agree
bit-for-bit and golden test vectors are portable. Gaussian draws use
Box-Muller; Gamma draws use a sum of exponentials for integer shapes and
Marsaglia-Tsang acceptance sampling otherwise. Everything consumes uniforms
from one explicit stream, so runs are reproducible from the seed alone.

Because a variate depends only on its stream's seed and position, R streams
draw as one array: ``uniform_rows`` gives each the same number of uniforms,
as an (R, k) array, and ``_uniform_runs`` each its own number, one run after
another. ``normals`` and ``gammas`` take one stream or a sequence of distinct
streams, one output row each. ``uniform_rows`` mixes at most 2**15 values at
a time, so its passes stay in a core's L2 cache, and each block adds its
start counter to a prefix of one constant table of the steps j*golden,
j < 2**15, built at import.
"""

from __future__ import annotations

import math
import numbers
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
_BLOCK = 1 << 15  # uniform_rows' values per block: 256 KiB, plus as much output
# draw j of a block is the mix of the block's start + j*golden, mod 2**64
_STEPS = np.arange(_BLOCK, dtype=np.uint64)
_STEPS *= _U_GOLDEN  # in place: no second 256 KiB array at import
_STEPS.flags.writeable = False


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
        # a float seed would be truncated, so two seeds would give one stream
        self.seed = _integer("seed", seed) & _MASK
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
        k = _check_size(k)
        if k > _BLOCK:
            return uniform_rows((self,), k)[0]
        out = np.empty(k)
        _mix_into(_STEPS[:k] + _advance((self,), (k,)), out)
        return out

    def spawn(self, key: int) -> "RngStream":
        """Derive an independent child stream from this stream's seed."""
        key = _integer("key", key)  # as for seed, a float key would be truncated
        child = _mix((self.seed ^ _mix((key + 1) * _GOLDEN & _MASK)) & _MASK)
        return RngStream(child)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, draws={self._count})"


def uniform_rows(rngs, k: int) -> np.ndarray:
    """The next k uniforms of each stream in rngs, as a (len(rngs), k) array.

    Row r is what ``rngs[r].next_uniforms(k)`` would return, and every
    stream advances by k.
    """
    rngs = _check_streams(rngs)
    k = _check_size(k)
    start = _advance(rngs, [k] * len(rngs))[:, None]
    out = np.empty((len(rngs), k))
    if max(out.size, k) <= _BLOCK:  # measured: a one-block loop costs about 3 us more
        _mix_into(np.add(start, _STEPS[:k]), out)
        return out
    # whole rows per block while they fit, else one row in column chunks
    rows, cols = max(1, _BLOCK // k), min(k, _BLOCK)
    z = np.empty(rows * cols, dtype=np.uint64)
    for c in range(0, k, cols):
        first = start + np.uint64(c * _GOLDEN & _MASK)
        for r in range(0, len(rngs), rows):
            block = out[r:r + rows, c:c + cols]
            zb = z[:block.size].reshape(block.shape)
            np.add(first[r:r + rows], _STEPS[:block.shape[1]], out=zb)
            _mix_into(zb, block)
    return out


def _advance(rngs, ks) -> np.ndarray:
    """Each stream's counter base for its next draw, as uint64; stream r moves on ks[r]."""
    start = np.array([(g.seed + (g._count + 1) * _GOLDEN) & _MASK for g in rngs],
                     dtype=np.uint64)
    for g, k in zip(rngs, ks):
        g._count += k
    return start


def _uniform_runs(rngs, ks: np.ndarray) -> np.ndarray:
    """The next ks[r] uniforms of each stream rngs[r], run r being what
    ``rngs[r].next_uniforms(ks[r])`` would return, one run after another."""
    if len(rngs) == 1:
        return rngs[0].next_uniforms(int(ks[0]))
    ends = np.cumsum(ks)
    z = (np.arange(ends[-1]) - np.repeat(ends - ks, ks)).view(np.uint64)  # places in the runs
    z *= _U_GOLDEN
    z += np.repeat(_advance(rngs, ks.tolist()), ks)
    out = np.empty(z.size)
    _mix_into(z, out)
    return out


def _mix_into(z: np.ndarray, out: np.ndarray) -> None:
    """Write SplitMix64's output mix of z, as uniforms, to the float64 out.

    z is mixed in place; out doubles as the scratch for the shifts, since its
    uniforms are written last.
    """
    tmp = out.view(np.uint64)
    for shift, mult in ((_U30, _U_MIX1), (_U27, _U_MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _U31, out=tmp)
    z ^= tmp
    z >>= _U11
    np.multiply(z, _INV_2_53, out=out)


def _integer(name: str, value, low=None) -> int:
    """value as an int, which must be at least low if given; a float is refused."""
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or (low is not None and whole < low):
        at_least = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an integer{at_least}, got {value!r}")
    return whole


def _finite(name: str, value, positive=False) -> None:
    """Refuse a value that is not a finite real number, or not positive if asked."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not (0 < value < math.inf if positive else math.isfinite(value)):
        kind = "finite and positive" if positive else "finite"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")


def _check_type(name: str, value, cls) -> None:
    """Refuse a value that is not an instance of cls, naming the argument."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be an instance of {cls.__name__}, "
                              f"not {type(value).__name__}")


def _check_streams(rngs) -> tuple:
    """rngs as a tuple of distinct streams, read once; refuse anything else: a
    stream listed twice would give its rows one draw, not two."""
    try:
        streams = tuple(rngs)
    except TypeError:  # not iterable
        raise ValidationError(f"rng must be an RngStream or a sequence of them, "
                              f"not {type(rngs).__name__}") from None
    first = {}
    for i, g in enumerate(streams):
        if not isinstance(g, RngStream):
            raise ValidationError(f"rng[{i}] must be an instance of RngStream, "
                                  f"not {type(g).__name__}")
        if first.setdefault(id(g), i) != i:
            raise ValidationError(f"stream at index {i} repeats the stream at index "
                                  f"{first[id(g)]}; each row needs its own stream")
    return streams


def _check_size(size) -> int:
    """size as an int; a size that is not an integer would desync the stream."""
    size = _integer("size", size)
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
    _finite("shape", shape, positive=True)
    _finite("scale", scale, positive=True)
    size = _check_size(size)
    if float(shape).is_integer():
        # sum of `shape` exponentials, fully vectorized
        k = int(shape)
        u = _uniforms(rng, k * size)
        u = u.reshape(u.shape[:-1] + (k, size))
        return -scale * np.log1p(-u).sum(axis=-2)
    if not isinstance(rng, RngStream):
        # Marsaglia-Tsang draws a varying number of uniforms: stream by stream
        rows = _check_streams(rng)
        return np.array([gammas(g, shape, scale, size) for g in rows]).reshape(len(rows), size)
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
