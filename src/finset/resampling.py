"""Resampling schemes for weighted particle sets.

Five schemes that all turn M weighted particles into n equally weighted
copies. Each returns the ``Allocation`` it builds (M read-only int64 copy
counts summing to n), which every metric takes as it is:

- ``msv``: the LMSE partition of the weights. Deterministic and draws
  nothing; no count vector has a smaller sampling variance given the
  weights, but as a resampler it is biased.
- ``multinomial``: n independent inverse-CDF draws (n uniforms).
- ``residual``: deterministic floors, remainder drawn multinomially from the
  normalized residuals (n - L uniforms).
- ``systematic``: one uniform offset, grid (u + i)/n swept through the CDF
  (1 uniform).
- ``rsr``: residual systematic resampling, whose single-sweep carry
  recursion telescopes to systematic's counts at the same offset, so
  ``rsr_resample`` is the systematic entry point under RSR's name.

Each scheme has one row kernel (``_ROW_KERNELS``): R weight rows at n units
(a ``partition._Rows``) and R streams in, (R, M) int64 counts out, row r what
the scheme gives that row with stream r alone. The public functions are its
R = 1 case. Multinomial and residual sort each row's integer keys as doubles,
or one row's few draws alone to search the CDF; systematic differences its
cumulative counts ceil(n*cdf - u) block by block; msv is ``lmse_partition``'s.

Sampling variance is the mean squared discrepancy between counts and their
real-valued expectations n*w, identical to the partition MSE metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import (Allocation, ValidationError, WeightVector, as_allocation, as_weights,
                        _check_n, _lmse_rows, _real_array, _Rows, _stored, lmse_partition, mse)
from .rng import _BLOCK, RngStream, _check_type, _Streams, _uniform_runs, uniform_rows


@dataclass(frozen=True, eq=False, init=False)  # as WeightVector
class ParticleSet:
    """States plus a WeightVector of matching length."""

    states: np.ndarray
    weights: WeightVector

    def __init__(self, states, weights):
        arr = _real_array(states, "states must be real numbers")
        arr = np.array(arr, float, ndmin=1)  # a copy: the caller's stays writeable
        wv = as_weights(weights)
        if arr.ndim != 1:
            raise ValidationError("states must be 1-d")
        if not np.all(np.isfinite(arr)):  # it would surface as a particle collapse
            raise ValidationError(f"states must be finite, got {arr[~np.isfinite(arr)][0]}")
        if arr.size != len(wv):
            raise ValidationError(f"length mismatch: {arr.size} states vs {len(wv)} weights")
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "weights", wv)

    @classmethod
    def _trusted(cls, states: np.ndarray, weights: WeightVector) -> ParticleSet:
        """Wrap read-only 1-d states and weights of matching length; no checks."""
        p = object.__new__(cls)
        vars(p).update(states=states, weights=weights)
        return p

    def __len__(self):
        return self.states.size


# An old name, for finbench's test_phantom_particle_fails_the_op_not_the_run only
ResampleCounts = as_allocation


def msv_resample(p, n, rng: RngStream | None = None) -> Allocation:
    """Minimum-sampling-variance resampling; deterministic, rng (if any) untouched."""
    if rng is not None:
        _check_type("rng", rng, RngStream)
    # the weights as given: lmse_partition checks them once
    return lmse_partition(p.weights if isinstance(p, ParticleSet) else p, n)


def _one_row(kernel, p, n, rng) -> Allocation:
    """A row kernel's R = 1 case: one population, one stream."""
    n = _check_n(n)
    _check_type("rng", rng, RngStream)
    w = p.weights if isinstance(p, ParticleSet) else p
    # handed over, not kept: a kernel that drops the rows frees weights checked here
    return Allocation._trusted(kernel(_Rows(_stored(w)[None], n), (rng,))[0], n)


def _draw_counts(held: list, ks, rngs) -> np.ndarray:
    """(R, M) counts of ks[r] inverse-CDF draws from rngs[r] on CDF row r.

    ks is one int for every row, or R ints. A draw lands in the first bin whose
    CDF value exceeds it. One row of k <= M/4 draws sorts them alone and
    searches the CDF, which ends at 1 > u (faster there). Else a uniform is
    j*2**-53 exactly, so u < c iff j < ceil(c*2**53). Row r of the (R, M + max
    ks) keys holds the even keys 2*ceil(c*2**53) <= 2**54 of its CDF, the odd
    keys 2*j + 1 < 2**54 of its draws and pads 2**54 + 1, each with bit 60 set,
    and is sorted on its own as normal positive doubles, which order as their
    bits do (subnormals read as 0 under flush-to-zero). Read in order, the odd
    keys before an even key are its bin's draws; a row's pads, read as the next
    row's bin 0 draws, are taken off after. The CDF, held's one item, is freed
    once its keys are written; the keys are read 2**15 at a time: beside them,
    the CDF, the draws or the counts, never two of them, are alive.
    """
    cdf = held.pop()
    (r, m), k, most = cdf.shape, np.asarray(ks), int(np.max(ks))
    if r == 1 and 4 * most <= m:  # drawn as the keyed draws below are
        u = (uniform_rows(rngs, most) if k.ndim == 0 else _uniform_runs(rngs, k)).reshape(-1)
        u.sort()
        bins = cdf[0].searchsorted(u, side="right")
        del cdf, u  # before the counts
        return np.bincount(bins, minlength=m)[None]
    keys = np.empty((r, m + most), dtype=np.uint64)
    for b in range(0, m, step := max(1, _BLOCK // r)):  # block-sized temporaries, not M-sized
        x = cdf[:, b:b + step] * 2.0**53
        np.multiply(np.ceil(x, out=x), 2.0, out=keys[:, b:b + x.shape[1]], casting="unsafe")
        del x  # before the next block's
    del cdf  # its last keys are written: freed before the draws
    draws = keys[:, m:]
    if k.ndim == 0:  # every row draws k: one (R, k) block
        np.multiply(uniform_rows(rngs, most), 2.0**54, out=draws, casting="unsafe")
    elif (u := _uniform_runs(rngs, k)).size == draws.size:  # no row is short: no pads
        np.multiply(u.reshape(draws.shape), 2.0**54, out=draws, casting="unsafe")
    else:
        draws[:] = 2**54 + 1
        draws[np.arange(draws.shape[1]) < k[:, None]] = np.multiply(u, 2.0**54, out=u)
    u = None  # freed before the sort and the counts
    draws |= np.uint64(1)
    keys |= np.uint64(1 << 60)  # every key a normal double: see above
    keys.view(np.float64).sort(axis=1)
    counts = np.empty((r, m), dtype=np.int64)
    flat, out, done, last = keys.reshape(-1), counts.reshape(-1), 0, -1
    for b in range(0, flat.size, _BLOCK):
        block = flat[b:b + _BLOCK]
        block &= np.uint64(1)
        at = (block == 0).nonzero()[0]  # the even keys' places: a bool's nonzero is fastest
        if at.size:  # the keys between two even keys are the later one's draws
            out[done] = at[0] + (b - last - 1)
            gaps = out[done + 1:done + at.size]
            np.subtract(at[1:], at[:-1], out=gaps)
            gaps -= 1
            done, last = done + at.size, b + at[-1]
        del at  # before the next block's
    if k.ndim and r > 1:  # row r's pads were read as row r + 1's bin 0 draws
        counts[1:, 0] -= draws.shape[1] - k[:-1]
    return counts


def _multinomial_rows(rows: _Rows, rngs) -> np.ndarray:
    held, n = [rows.cdf], rows.n
    del rows  # see _one_row
    try:
        return _draw_counts(held, n, rngs)
    except MemoryError:  # a key and a uniform a draw, 8 bytes each
        raise ValidationError(f"n = {n} multinomial draws need {16 * n * len(rngs) / 2**30:.1f} "
                              f"GiB of memory, more than can be allocated") from None


def multinomial_resample(p, n, rng: RngStream) -> Allocation:
    """n independent draws from the weight distribution via inverse CDF."""
    return _one_row(_multinomial_rows, p, n, rng)


def _systematic_rows(rows: _Rows, rngs) -> np.ndarray:
    cdf, n = rows.cdf, rows.n
    del rows  # see _one_row
    if len(rngs) == 1 and not isinstance(rngs, _Streams):  # one scalar draw skips the array mix
        return _systematic_counts(cdf, n, np.array([rngs[0].next_uniform()]))
    return _systematic_counts(cdf, n, uniform_rows(rngs, 1)[:, 0])


def systematic_resample(p, n, rng: RngStream) -> Allocation:
    """One uniform offset, n evenly spaced grid points through the CDF."""
    return _one_row(_systematic_rows, p, n, rng)


def _systematic_counts(cdf: np.ndarray, n: int, u: np.ndarray) -> np.ndarray:
    """(R, M) counts of (R, M) CDF rows, row r at offset u[r].

    Grid point (u + i)/n lies below cdf[m] for i < n*cdf[m] - u, so the
    cumulative counts are ceil(n*cdf - u): whole floats in [0, n], built and
    differenced 2**14 values at a time. When u is within an ulp of 1, n - u
    rounds down to n - 1 (top), so where cdf is 1 they are set to n: the
    row's total stays exact and its trailing zero weights get no copy.
    """
    u = u[:, None]
    top = np.ceil(n - u) < n
    fix = top.any()
    counts = np.empty(cdf.shape, dtype=np.int64)
    step, before = max(1, _BLOCK // 2 // len(cdf)), 0.0
    cum = np.empty((len(cdf), min(step, cdf.shape[1])))
    for b in range(0, cdf.shape[1], step):
        c = cdf[:, b:b + step]
        block = cum[:, :c.shape[1]]
        np.multiply(c, n, out=block)
        block -= u
        np.ceil(block, out=block)
        if fix:
            block[top & (c == 1.0)] = n
        counts[:, b] = block[:, 0] - before
        np.subtract(block[:, 1:], block[:, :-1], out=counts[:, b + 1:b + c.shape[1]],
                    casting="unsafe")
        before = block[:, -1].copy()
    return counts


# The RSR carry recursion counts[m] = Floor((w[m] - u_m)*n) + 1, with
# u_{m+1} = u_m + counts[m]/n - w[m], telescopes to the same cumulative
# counts ceil(n*cdf - u0): RSR is systematic resampling at the same offset.
_rsr_counts = _systematic_counts
rsr_resample = systematic_resample


def _residual_rows(rows: _Rows, rngs) -> np.ndarray:
    floors, surplus, floored = rows.split()
    if not any(surplus):  # nothing to draw: no residuals, and no residual CDF, to build
        return floors.copy()
    held = [rows.residual_cdf(rows.residuals(floored), surplus)]
    del floored, rows  # no other scheme reads it: freed once its keys are written
    counts = _draw_counts(held, surplus, rngs)
    counts += floors
    return counts


def residual_resample(p, n, rng: RngStream) -> Allocation:
    """Deterministic floors plus multinomial draws on the residual mass."""
    return _one_row(_residual_rows, p, n, rng)


def sampling_variance(c, w):
    """Sampling variance of resample counts: the MSE against n*w.

    Given an (R, M) integer array of count rows and an (R, M) array of the
    weight rows they were drawn from, returns the R row variances, with n the
    row's sum. Both are real numbers, as arrays or nested sequences, each row
    checked as one vector would be and used as given, not renormalised.
    """
    if isinstance(c, Allocation):
        return mse(c, w)
    c = _real_array(c, "counts must be real numbers, in one vector or in (R, M) rows")
    if c.ndim == 2:
        w = _real_array(w, "weights must be real numbers")
        if c.shape != np.shape(w):
            raise ValidationError(f"shape mismatch: {c.shape} counts vs {np.shape(w)} weights")
        if not c.shape[1]:  # as mse refuses one empty count vector
            raise ValidationError(f"count rows must be non-empty, got shape {c.shape}")
        for r, row in enumerate(c):  # each row by the rules of one vector
            try:
                Allocation(row)
            except ValidationError as e:
                raise ValidationError(f"count row {r}: {e}") from None
        w = w.astype(float)
        for bad, what in ((~np.isfinite(w), "non-finite"), (w < 0, "negative")):
            if bad.any():
                r, i = np.argwhere(bad)[0].tolist()
                raise ValidationError(f"{what} weight {w[r, i]} at row {r}, index {i}")
        return _sv(c, c.sum(axis=1, keepdims=True) * w)
    return mse(c, w)


def _sv(c: np.ndarray, nw: np.ndarray) -> np.ndarray:
    """The R row variances of (R, M) counts c about their expectations nw = n*w."""
    d = c - nw
    d *= d
    return np.add.reduce(d, axis=1) / d.shape[1]  # np.mean, without its dispatch


def counts_to_indices(c) -> np.ndarray:
    """Expand one count vector (an Allocation or its sizes) into sorted indices."""
    sizes = as_allocation(c).sizes
    return np.repeat(np.arange(sizes.size), sizes)


RESAMPLERS = {
    "multinomial": multinomial_resample,
    "residual": residual_resample,
    "systematic": systematic_resample,
    "rsr": rsr_resample,
    "msv": msv_resample,
}

# Each scheme's row kernel, by function (see the module docstring); rsr is systematic.
_ROW_KERNELS = {
    multinomial_resample: _multinomial_rows,
    residual_resample: _residual_rows,
    systematic_resample: _systematic_rows,
    msv_resample: _lmse_rows,
}
