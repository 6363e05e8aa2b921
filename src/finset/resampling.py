"""Resampling schemes for weighted particle sets.

Five schemes that all turn M weighted particles into n equally weighted
copies. Each returns the ``Allocation`` it builds (M read-only int64 copy
counts summing to n), which every metric takes as it is:

- ``msv``: the minimum-sampling-variance scheme, i.e. the LMSE partition of
  the weights. Purely deterministic, consumes no randomness, and provably
  achieves the smallest sampling variance of any valid count vector.
- ``multinomial``: n independent inverse-CDF draws (n uniforms).
- ``residual``: deterministic floors, remainder drawn multinomially from the
  normalized residuals (n - L uniforms).
- ``systematic``: one uniform offset, grid (u + i)/n swept through the CDF
  (1 uniform).
- ``rsr``: residual systematic resampling, a single-sweep recursion with a
  fractional carry. Its counts telescope to systematic's at the same offset,
  so ``rsr_resample`` is the systematic entry point under RSR's name
  (1 uniform).

Every CDF is nondecreasing within [0, 1] and ends at exactly 1. Multinomial,
systematic and rsr only read the CDF that a ``WeightVector`` builds once and
caches (``WeightVector.cdf``), so a population passed to several schemes sums
its weights once. The SIR benchmark's populations also carry their floors,
residuals, surplus and residual CDF at its n, built once per step for all
runs, which residual and msv read at that n. The two draw-based schemes
count the draws below each CDF value, never searching per draw: small calls
sort the draws and search them once per CDF value; large, balanced ones
(``_merged_readout``) sort exact integer keys of both at once. The two
readouts give the same counts.
Systematic and rsr share one closed-form kernel, cumulative counts
ceil(n*cdf - u), which gives M counts summing to n for every offset,
differenced block by block. The schemes that draw require an ``RngStream``.

Sampling variance is the mean squared discrepancy between counts and their
real-valued expectations n*w, identical to the partition MSE metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import (
    Allocation,
    ValidationError,
    WeightVector,
    as_allocation,
    as_weights,
    _check_n,
    _floors_and_residuals,
    _real_array,
    _residual_cdf,
    _surplus,
    lmse_partition,
    mse,
)
from .rng import _BLOCK, RngStream, _check_type


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(p, "states", states)
        object.__setattr__(p, "weights", weights)
        return p

    def __len__(self):
        return self.states.size


def _weights_of(p) -> WeightVector:
    return p.weights if isinstance(p, ParticleSet) else as_weights(p)


# Only finbench's test_phantom_particle_fails_the_op_not_the_run uses this old name;
# the benchmark revision of ROADMAP.md item 1 deletes it. Nothing else may use it.
ResampleCounts = as_allocation


def msv_resample(p, n, rng: RngStream | None = None) -> Allocation:
    """Minimum-sampling-variance resampling; deterministic, rng untouched."""
    return lmse_partition(_weights_of(p), n)


def _add_counts(counts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Add to counts, in place, the per-bin counts of cumulative counts cum."""
    counts += cum
    counts[1:] -= cum[:-1]
    return counts


def _merged_readout(m: int, k: int) -> bool:
    """Whether k draws into an m-entry CDF are counted by one merged key sort.

    Measured with NumPy 2.4's AVX-512 sorts on one thread, the merged readout
    takes 0.6-0.97 of the search readout's time inside this rule. It breaks
    even near k = 8m and, at m = 1e6, near k = m/128, and is up to 1.5x
    slower below a thousand draws. Every other call, such as the benchmark's
    M = 100, sorts and searches; that path goes once row-batched scheme
    kernels put every call inside the rule.
    """
    return 4096 <= k <= 4 * m and 4096 <= m <= 16 * k


def _draw_cum(cdf: np.ndarray, rng: RngStream, k: int) -> np.ndarray:
    """Cumulative inverse-CDF counts of k uniforms from rng; cdf is only read.

    A draw lands in the first bin whose CDF value exceeds it, so the draws
    landing in bins 0..m number those strictly below cdf[m]. Counts do not
    depend on draw order, so sorting replaces a random-access search per draw.
    """
    m = cdf.size
    u = rng.next_uniforms(k)
    if not _merged_readout(m, k):
        u.sort()
        return u.searchsorted(cdf)  # side="left"
    # An RngStream uniform is j*2**-53 exactly, so u < c iff j < ceil(c*2**53).
    # The CDF values become the even keys 2*ceil(c*2**53) and the draws the
    # odd keys 2*j + 1, which never tie; after one sort, the draws below
    # cdf[m] are the odd keys before the m-th even key: its position minus m.
    keys = np.empty(m + k, dtype=np.uint64)
    for b in range(0, m, _BLOCK):  # block-sized temporaries, not an M-sized one
        c = cdf[b:b + _BLOCK] * 2.0**53
        np.multiply(np.ceil(c, out=c), 2.0, out=keys[b:b + c.size], casting="unsafe")
    np.multiply(u, 2.0**54, out=keys[m:], casting="unsafe")
    del c, u  # released before the sort and the readout
    keys[m:] |= np.uint64(1)
    keys.sort()
    keys &= np.uint64(1)
    cum = np.flatnonzero(keys == 0)
    del keys
    cum -= np.arange(m)
    return cum


def multinomial_resample(p, n, rng: RngStream) -> Allocation:
    """n independent draws from the weight distribution via inverse CDF."""
    cdf = _weights_of(p).cdf  # a copy made from raw weights is freed here
    n = _check_n(n)
    _check_type("rng", rng, RngStream)
    cum = _draw_cum(cdf, rng, n)
    # counts are allocated after the readout, so they never coexist with the
    # draws, their keys or the stream's temporaries
    counts = _add_counts(np.zeros(cdf.size, dtype=np.int64), cum)
    return Allocation._trusted(counts, n)


def systematic_resample(p, n, rng: RngStream) -> Allocation:
    """One uniform offset, n evenly spaced grid points through the CDF."""
    cdf = _weights_of(p).cdf  # as in multinomial_resample
    n = _check_n(n)
    _check_type("rng", rng, RngStream)
    return _systematic_counts(cdf, n, rng.next_uniform())


def _systematic_counts(cdf: np.ndarray, n: int, u: float) -> Allocation:
    # Grid point (u + i)/n lies below cdf[m] for i < n*cdf[m] - u, so the
    # cumulative counts are ceil(n*cdf - u), within [0, n] for cdf in [0, 1]
    # and u in [0, 1): whole floats, whose differences are exact. Built one
    # block at a time, they need no M-sized buffer beside the counts.
    top = math.ceil(n - u) < n
    counts = np.empty(cdf.size, dtype=np.int64)
    if cdf.size <= _BLOCK:
        _block_counts(cdf, n, u, top, np.empty(cdf.size), counts, 0.0)
    else:
        cum, before = np.empty(_BLOCK), 0.0
        for b in range(0, cdf.size, _BLOCK):
            c = cdf[b:b + _BLOCK]
            before = _block_counts(c, n, u, top, cum[:c.size], counts[b:b + c.size], before)
    return Allocation._trusted(counts, n)


def _block_counts(cdf, n, u, top, cum, counts, before) -> float:
    """Write one CDF block's counts, its cumulative counts continuing from
    before, into counts (cum is scratch); return its last cumulative count.

    When u is within an ulp of 1, n - u rounds down to n - 1 (top); where cdf
    is 1 the count is then n, which keeps the total exact and gives trailing
    zero-weight particles no copy.
    """
    np.multiply(cdf, n, out=cum)
    cum -= u
    np.ceil(cum, out=cum)
    if top:
        cum[cdf == 1.0] = n
    counts[0] = cum[0] - before
    np.subtract(cum[1:], cum[:-1], out=counts[1:], casting="unsafe")
    return cum[-1]


# The RSR carry recursion counts[m] = Floor((w[m] - u_m)*n) + 1, with
# u_{m+1} = u_m + counts[m]/n - w[m], telescopes to the same cumulative
# counts ceil(n*cdf - u0): RSR is systematic resampling at the same offset.
_rsr_counts = _systematic_counts
rsr_resample = systematic_resample


def residual_resample(p, n, rng: RngStream) -> Allocation:
    """Deterministic floors plus multinomial draws on the residual mass."""
    wv = _weights_of(p)
    n = _check_n(n)
    _check_type("rng", rng, RngStream)
    if (split := wv._split_at(n)) is not None:
        floors, _, remaining, cdf = split
        counts = floors.copy()
    else:
        counts, res = _floors_and_residuals(wv.weights, n)
        del wv  # as in multinomial_resample
        remaining = _surplus(n, counts)
        cdf = _residual_cdf(res) if remaining > 0 else None
        del res  # freed before the draws: only the residual CDF is needed
    if remaining > 0:
        _add_counts(counts, _draw_cum(cdf, rng, remaining))
    return Allocation._trusted(counts, n)


def sampling_variance(c, w):
    """Sampling variance of resample counts: the MSE against n*w.

    Given an (R, M) integer array of count rows and an (R, M) array of the
    weight rows they were drawn from, returns the R row variances, with n the
    row's sum. The rows are used as given: not validated, not renormalised.
    """
    if isinstance(c, np.ndarray) and c.ndim == 2:
        if c.shape != np.shape(w):
            raise ValidationError(f"shape mismatch: {c.shape} counts vs {np.shape(w)} weights")
        d = c - c.sum(axis=1, keepdims=True) * w
        return np.mean(d * d, axis=1)
    return mse(c, w)


def counts_to_indices(c) -> np.ndarray:
    """Expand counts, in any form sampling_variance takes, into sorted indices."""
    sizes = as_allocation(c).sizes
    return np.repeat(np.arange(sizes.size), sizes)


RESAMPLERS = {
    "multinomial": multinomial_resample,
    "residual": residual_resample,
    "systematic": systematic_resample,
    "rsr": rsr_resample,
    "msv": msv_resample,
}
