"""Deterministic seedable uniform stream and the samplers built on it.

The generator is pinned project-wide to counter-based SplitMix64: the i-th
variate depends only on (seed, i), so scalar and vectorized draws agree
bit-for-bit and golden test vectors are portable. Gaussian draws use
Box-Muller; Gamma draws sum exponentials for an integer shape and invert the
Gamma CDF, one uniform per draw, otherwise. Everything consumes uniforms
from one explicit stream, so runs are reproducible from the seed alone.

A variate depends only on (seed, position), so R streams are two uint64
arrays of seeds and counts (``_Streams``), checked once, then drawn from,
spawned and moved on by array operations; one stream draws alone, via
``next_uniform(s)``. A draw takes at most 2**53 values, in blocks of 2**15
that stay in L2 cache, each adding its start to a table of j*golden.
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
            return uniform_rows(_Streams(*np.uint64([[self.seed], [self._count]]), (self,)), k)[0]
        out = np.empty(k)
        _mix_into(_STEPS[:k] + np.uint64((self.seed + (self._count + 1) * _GOLDEN) & _MASK), out)
        self._count += k
        return out

    def spawn(self, key: int) -> "RngStream":
        """Derive an independent child stream from this stream's seed; key is in [0, 2**64 - 2]."""
        key = _integer("key", key)  # as for seed, a float key would be truncated
        # golden is odd, so these keys give distinct children; key + 1 = 2**64 would
        # mix the seed alone, and seed 0 is a fixed point of the mix: the parent itself
        if not 0 <= key < _MASK:
            raise ValidationError(f"key must be an integer in [0, 2**64 - 2], got {key}")
        child = _mix((self.seed ^ _mix((key + 1) * _GOLDEN & _MASK)) & _MASK)
        return RngStream(child)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, draws={self._count})"


class _Streams:
    """R streams as uint64 arrays of seeds and counts (draws); a slice shares the counts."""

    def __init__(self, seeds: np.ndarray, counts: np.ndarray, owners: tuple = ()):
        self.seeds, self.counts, self._owners = seeds, counts, owners

    def __len__(self):
        return self.seeds.size

    def __getitem__(self, rows: slice) -> _Streams:
        return _Streams(self.seeds[rows], self.counts[rows], self._owners[rows])

    def spawn(self, key: int) -> _Streams:
        """Each row's child, bit for bit ``RngStream.spawn(key)``, from every seed at once."""
        z = self.seeds ^ np.uint64(_mix((key + 1) * _GOLDEN & _MASK))
        _mix64(z, np.empty_like(z))
        return _Streams(z, np.zeros_like(z))

    def _advance(self, ks) -> np.ndarray:
        """Each row's counter base for its next draw; row r and its RngStream move on ks[r]."""
        start = (self.counts + 1) * _U_GOLDEN + self.seeds
        self.counts += ks
        if self._owners:
            for g, c in zip(self._owners, self.counts.tolist()):
                g._count = c
        return start

    def each(self, draw):
        """draw(gs), gs these spawned rows as RngStreams at their counts; the rows move on too."""
        gs = tuple(map(RngStream, self.seeds.tolist()))
        for g, c in zip(gs, self.counts.tolist()):
            g._count = c
        out = draw(gs)
        self.counts[:] = [g._count for g in gs]
        return out


def _stream_rows(rngs):
    """Rows, or distinct RngStreams read once, as rows or one stream alone; refuse the rest."""
    if isinstance(rngs, _Streams):
        return rngs
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
        if first.setdefault(id(g), i) != i:  # its rows would be one draw, not two
            raise ValidationError(f"stream at index {i} repeats the stream at index "
                                  f"{first[id(g)]}; each row needs its own stream")
    return streams[0] if len(streams) == 1 else _Streams(  # arrays of one cost more
        *np.array([[g.seed for g in streams], [g._count for g in streams]], np.uint64), streams)


def uniform_rows(rngs, k: int) -> np.ndarray:
    """The next k uniforms of each stream in rngs, as a (len(rngs), k) array.

    Row r is what ``rngs[r].next_uniforms(k)`` would return, and every
    stream advances by k.
    """
    rngs = _stream_rows(rngs)
    k = _check_size(k)
    if isinstance(rngs, RngStream):
        return rngs.next_uniforms(k)[None]
    start = rngs._advance(k)[:, None]
    out = np.empty((len(rngs), k))
    # whole rows per block while they fit, else one row in column chunks
    cols = min(k, _BLOCK) or 1
    rows = _BLOCK // cols
    z = np.empty(min(rows, len(rngs)) * cols, dtype=np.uint64)
    for c in range(0, k, cols):
        first = start + np.uint64(c * _GOLDEN & _MASK)
        for r in range(0, len(rngs), rows):
            block = out[r:r + rows, c:c + cols]
            zb = z[:block.size].reshape(block.shape)
            np.add(first[r:r + rows], _STEPS[:block.shape[1]], out=zb)
            _mix_into(zb, block)
    return out


def _uniform_runs(rngs, ks: np.ndarray) -> np.ndarray:
    """The next ks[r] uniforms of each stream rngs[r], run r being what
    ``rngs[r].next_uniforms(ks[r])`` would return, one run after another."""
    if not isinstance(rngs, _Streams) and len(rngs) == 1:  # one RngStream draws alone
        return rngs[0].next_uniforms(int(ks[0]))
    rngs = _stream_rows(rngs)
    ends = np.cumsum(ks)
    z = (np.arange(ks.sum()) - np.repeat(ends - ks, ks)).view(np.uint64)  # places in the runs
    z *= _U_GOLDEN
    z += np.repeat(rngs._advance(ks.astype(np.uint64)), ks)
    out = np.empty(z.size)
    _mix_into(z, out)
    return out


def _mix_into(z: np.ndarray, out: np.ndarray) -> None:
    """Write SplitMix64's output mix of z, as uniforms, to the float64 out; z is mixed in place."""
    _mix64(z, out.view(np.uint64))  # out is the scratch: its uniforms are written last
    z >>= _U11
    np.multiply(z, _INV_2_53, out=out)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64's output mix of the uint64 z, in place; tmp is scratch of z's shape."""
    for shift, mult in ((_U30, _U_MIX1), (_U27, _U_MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _U31, out=tmp)
    z ^= tmp


def _integer(name: str, value, low=None, limited=False) -> int:
    """value as an int, at least low if given and at most 2**53 if limited; a float is refused."""
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or (low is not None and whole < low):
        at_least = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an integer{at_least}, got {value!r}")
    if limited and whole > 2**53:  # a count past n's limit would overflow a counter or an array
        raise ValidationError(f"{name} must be at most 2**53, got {whole}")
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


def _check_size(size) -> int:
    """size as an int in [0, 2**53]; a size that is not an integer would desync the stream."""
    size = _integer("size", size, limited=True)
    if size < 0:
        raise ValidationError(f"size must be nonnegative, got {size}")
    return size


def normals(rng, size: int) -> np.ndarray:
    """size standard-normal draws via Box-Muller (2*ceil(size/2) uniforms).

    rng is one stream, or a sequence of R streams for an (R, size) array
    whose row r is ``normals(rng[r], size)``.
    """
    size = _check_size(size)
    k = 2 * ((size + 1) // 2)  # one pair of uniforms per two draws
    u = rng.next_uniforms(k) if isinstance(rng, RngStream) else uniform_rows(rng, k)
    u1, u2 = u[..., :k // 2], u[..., k // 2:]
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log is safe
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :size]


def gammas(rng, shape: float, scale: float, size: int) -> np.ndarray:
    """size Gamma(shape, scale) draws (scale parametrization, mean shape*scale).

    An integer shape sums ``shape`` exponentials, shape*size uniforms (at most
    2**53); any other shape inverts the Gamma CDF, one uniform per draw. rng
    is one stream, or a sequence of R streams for an (R, size) array whose
    row r is ``gammas(rng[r], shape, scale, size)``.
    """
    _finite("shape", shape, positive=True)
    _finite("scale", scale, positive=True)
    size = _check_size(size)
    whole = float(shape).is_integer()
    k = int(shape) * size if whole else size
    if k > 2**53:
        raise ValidationError(f"shape {shape!r} and size {size} need more than 2**53 uniforms")
    u = rng.next_uniforms(k) if isinstance(rng, RngStream) else uniform_rows(rng, k)
    if not whole:
        # imported on first use: scipy.special adds ~25 MiB and 0.3-0.6 s to any import of finset
        from scipy.special import gammaincinv
        return scale * gammaincinv(float(shape), u)
    u = u.reshape(u.shape[:-1] + (int(shape), size))
    return -scale * np.log1p(-u).sum(axis=-2)
