"""Resampling schemes for weighted particle sets.

Five schemes that all turn M weighted particles into n equally weighted
copies, returned as per-particle copy counts:

- ``msv``: the minimum-sampling-variance scheme, i.e. the LMSE partition of
  the weights. Purely deterministic, consumes no randomness, and provably
  achieves the smallest sampling variance of any valid count vector.
- ``multinomial``: n independent inverse-CDF draws (n uniforms).
- ``residual``: deterministic floors, remainder drawn multinomially from the
  normalized residuals (n - L uniforms).
- ``systematic``: one uniform offset, grid (u + i)/n swept through the CDF
  (1 uniform).
- ``rsr``: residual systematic resampling, a single-sweep recursion with a
  fractional carry, equivalent to systematic at matching offset (1 uniform).

Every CDF is nondecreasing within [0, 1] and ends at exactly 1. The two
draw-based schemes sort their uniforms and count the draws below each CDF
value; systematic and rsr share one closed-form kernel, cumulative counts
ceil(n*cdf - u), which gives M counts summing to n for every offset.

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
    as_weights,
    _check_n,
    _floors_and_residuals,
    _surplus,
    lmse_partition,
    mse,
)
from .rng import RngStream


@dataclass(frozen=True)
class ParticleSet:
    """States plus a WeightVector of matching length."""

    states: np.ndarray
    weights: WeightVector

    def __init__(self, states, weights):
        arr = np.atleast_1d(np.asarray(states, dtype=float))
        wv = as_weights(weights)
        if arr.ndim != 1:
            raise ValidationError("states must be 1-d")
        if arr.size != len(wv):
            raise ValidationError(
                f"length mismatch: {arr.size} states vs {len(wv)} weights"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "weights", wv)

    def __len__(self):
        return self.states.size


@dataclass(frozen=True)
class ResampleCounts:
    """How many times each particle appears in the resampled set."""

    counts: Allocation

    def __len__(self):
        return len(self.counts)

    @property
    def sizes(self) -> np.ndarray:
        return self.counts.sizes

    @property
    def total(self) -> int:
        return self.counts.total


def _weights_of(p) -> WeightVector:
    return p.weights if isinstance(p, ParticleSet) else as_weights(p)


def msv_resample(p, n, rng: RngStream | None = None) -> ResampleCounts:
    """Minimum-sampling-variance resampling; deterministic, rng untouched."""
    return ResampleCounts(lmse_partition(_weights_of(p), n))


def _cdf(running: np.ndarray) -> np.ndarray:
    """Turn running sums of nonnegative mass into a CDF, in place.

    Running sums of weights that add to 1 within rounding can pass 1 before
    the last entry, or end a few ulps short of 1. Every entry at or above the
    smaller of 1 and the last one is set to 1: the CDF is then nondecreasing
    within [0, 1], which both count kernels rely on, and ends at 1 without
    handing a shortfall to trailing zero-mass bins.
    """
    running[running >= min(running[-1], 1.0)] = 1.0
    return running


def _add_counts(counts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Add to counts, in place, the per-bin counts of cumulative counts cum."""
    counts += cum
    counts[1:] -= cum[:-1]
    return counts


def _add_draw_counts(counts: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Add the inverse-CDF counts of the uniforms u, which are sorted in place.

    A draw lands in the first bin whose CDF value exceeds it, so the draws
    landing in bins 0..m number those strictly below cdf[m]. Counts do not
    depend on draw order, so one sort replaces a random-access search per draw.
    """
    u.sort()
    return _add_counts(counts, np.searchsorted(u, cdf, side="left"))


def multinomial_resample(p, n, rng: RngStream) -> ResampleCounts:
    """n independent draws from the weight distribution via inverse CDF."""
    wv = _weights_of(p)
    n = _check_n(n)
    cdf = _cdf(np.cumsum(wv.weights))
    u = rng.next_uniforms(n)
    # counts are allocated after drawing, so they never coexist with the
    # stream's temporaries and the peak memory stays that of the draw
    counts = _add_draw_counts(np.zeros(len(wv), dtype=np.int64), cdf, u)
    return ResampleCounts(Allocation._trusted(counts, n))


def systematic_resample(p, n, rng: RngStream) -> ResampleCounts:
    """One uniform offset, n evenly spaced grid points through the CDF."""
    wv = _weights_of(p)
    n = _check_n(n)
    return _systematic_counts(wv, n, rng.next_uniform())


def _systematic_counts(wv: WeightVector, n: int, u: float) -> ResampleCounts:
    # Grid point (u + i)/n lies below cdf[m] for i < n*cdf[m] - u, so the
    # cumulative counts are ceil(n*cdf - u), within [0, n] for cdf in [0, 1]
    # and u in [0, 1).
    cdf = _cdf(np.cumsum(wv.weights))
    cum = np.ceil(n * cdf - u).astype(np.int64)
    if math.ceil(n - u) < n:
        # u is within an ulp of 1 and n - u rounds down to n - 1; where cdf
        # is 1 the count is n, which keeps the total exact and gives
        # trailing zero-weight particles no copy
        cum[cdf == 1.0] = n
    return ResampleCounts(Allocation._trusted(_add_counts(np.zeros_like(cum), cum), n))


# The RSR carry recursion counts[m] = Floor((w[m] - u_m)*n) + 1, with
# u_{m+1} = u_m + counts[m]/n - w[m], telescopes to the same cumulative
# counts ceil(n*cdf - u0): RSR is systematic resampling at the same offset.
_rsr_counts = _systematic_counts


def residual_resample(p, n, rng: RngStream) -> ResampleCounts:
    """Deterministic floors plus multinomial draws on the residual mass."""
    wv = _weights_of(p)
    n = _check_n(n)
    counts, res = _floors_and_residuals(wv.weights, n)
    remaining = _surplus(n, counts)
    if remaining > 0:
        # n*w that rounds up onto an integer leaves a residual an ulp below 0;
        # as mass it is 0, and the running sums must not fall. Divided by the
        # last of them they are a CDF: nondecreasing, within [0, 1], ending at 1.
        cum = np.cumsum(np.maximum(res, 0.0, out=res))
        cdf = np.divide(cum, cum[-1], out=cum)
        _add_draw_counts(counts, cdf, rng.next_uniforms(remaining))
    return ResampleCounts(Allocation._trusted(counts, n))


def rsr_resample(p, n, rng: RngStream) -> ResampleCounts:
    """Residual systematic resampling: one sweep with a fractional carry."""
    wv = _weights_of(p)
    n = _check_n(n)
    return _rsr_counts(wv, n, rng.next_uniform())


def sampling_variance(c, w) -> float:
    """Sampling variance of resample counts: the MSE against n*w."""
    alloc = c.counts if isinstance(c, ResampleCounts) else c
    return mse(alloc, w)


def counts_to_indices(c) -> np.ndarray:
    """Expand counts into a sorted index list of length n."""
    return np.repeat(np.arange(len(c)), c.sizes)


RESAMPLERS = {
    "multinomial": multinomial_resample,
    "residual": residual_resample,
    "systematic": systematic_resample,
    "rsr": rsr_resample,
    "msv": msv_resample,
}
