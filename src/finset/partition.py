"""Least-mean-square-error integer partitioning of N units across M weighted bins.

Given nonnegative proportions w summing to 1 and an integer total n, the
partition assigns each bin either Floor(n*w[m]) or Floor(n*w[m]) + 1 units,
handing the surplus units to the bins with the largest fractional residuals.
That allocation minimizes the mean squared discrepancy (1/M) * sum (size[m]
- n*w[m])^2 over all nonnegative integer allocations summing to n.

Also provided: the MSE/MAE discrepancy metrics, a strict |size - n*w| < 1
bound check, a single-unit-transfer local-optimality check, and an exhaustive
brute-force minimizer used as an independent test oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Inputs must sum to 1 within this tolerance; they are then renormalized so
# downstream arithmetic sees an exact-unit simplex point.
WEIGHT_SUM_TOL = 1e-9
# check_local_optimality accepts every transfer whose MSE change exceeds -this.
LOCAL_OPTIMALITY_TOL = 1e-12

# brute_force_partition refuses instances with more compositions than this.
BRUTE_FORCE_LIMIT = 10**7


class ValidationError(ValueError):
    """Invalid weights, allocations, or arguments."""


def _real_array(values, error: str) -> np.ndarray:
    """values as an array of bools, ints, floats, or real numbers and None (as nan).

    Anything else (strings, bytes, complex, times) raises ValidationError(error).
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise ValidationError(error) from None
    if arr.dtype == object and all(x is None or isinstance(x, numbers.Real) for x in arr.flat):
        try:
            arr.astype(float)
        except OverflowError:  # an int past the float range
            raise ValidationError(f"{error} within the float range") from None
    elif arr.dtype.kind not in "biuf":
        raise ValidationError(error)
    return arr


# init=False where a class defines its own __init__: dataclass would build, and
# compile, one more that is never used on every import
@dataclass(frozen=True, eq=False, init=False)
class WeightVector:
    """M nonnegative proportions summing to one.

    Entries must be finite, >= 0 and sum to 1 within ``WEIGHT_SUM_TOL``; the
    stored vector is renormalized by its sum so filters feeding in
    near-normalized weights get consistent treatment.
    """

    weights: np.ndarray

    def __init__(self, weights):
        arr = np.atleast_1d(_real_array(
            weights, "weights must be real numbers").astype(float, copy=False))
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("weights must be a non-empty 1-d sequence")
        # a nan or -inf fails the minimum, a +inf the total, which entries in [0, 2] cannot overflow
        if (low := np.minimum.reduce(arr)) >= 0 and np.maximum.reduce(arr) <= 2:
            total = float(np.add.reduce(arr))  # what arr.sum() computes
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                total = float(np.add.reduce(arr))
        if not (low >= 0 and math.isfinite(total)):
            for bad, what in ((~np.isfinite(arr), "non-finite"), (arr < 0, "negative")):
                if bad.any():
                    i = int(np.flatnonzero(bad)[0])
                    raise ValidationError(f"{what} weight {arr[i]} at index {i}")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, "
                                  f"expected 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "weights", _frozen(arr / total))

    def __len__(self):
        return self.weights.size


def _cdf(running: np.ndarray) -> np.ndarray:
    """Turn running sums of nonnegative mass, or (R, M) rows of them, into CDFs, in place.

    Running sums of weights that add to 1 within rounding can pass 1 before
    the last entry, or end a few ulps short of 1. Every entry at or above the
    smaller of 1 and the last one is set to 1: the CDF is then nondecreasing
    within [0, 1], which both count kernels rely on, and ends at 1 without
    handing a shortfall to trailing zero-mass bins. Adding a nonnegative float
    never lowers a float sum, so those entries are a suffix: one search finds
    it in one row, and a compare against each row's bound marks it in many.
    """
    if running.ndim == 1:
        running[running.searchsorted(min(running[-1], 1.0)):] = 1.0
    else:
        running[running >= np.minimum(running[:, -1:], 1.0)] = 1.0
    return running


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Rows:
    """R rows of weights at n units, and the split of each that the row kernels read.

    ``weights`` is (R, M), each row as WeightVector stores it; one caller's
    population is the one row ``WeightVector.weights[None]``. Each part is
    built for every row at once, row r as that row alone would give it, and
    only when read: at M = 1e6 one costs about what a whole systematic call
    does. The parts read by more than one caller are cached read-only.
    """

    def __init__(self, weights: np.ndarray, n: int):
        self.weights, self.n = weights, n

    @cached_property
    def cdf(self) -> np.ndarray:
        """The running sums of each row as a CDF (see ``_cdf``)."""
        running = self.weights.cumsum(axis=1)
        _cdf(running[0] if len(running) == 1 else running)  # one row: one search
        return _frozen(running)

    @cached_property
    def floors(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """floor(n*w) as int64, and the units each row's floors leave: within
        [0, M] unless n*w lost whole units."""
        floors = self.n * self.weights
        floors = _frozen(np.floor(floors, out=floors).astype(np.int64))
        surplus = tuple([self.n - s for s in np.add.reduce(floors, axis=1).tolist()])
        for s in surplus:
            if not 0 <= s <= floors.shape[1]:
                raise ValidationError(f"n = {self.n} is past float precision for these weights: "
                                      f"the floors leave {s} units for {floors.shape[1]} bins")
        return floors, surplus

    def residuals(self) -> np.ndarray:
        """w - floors/n, a new array: no caller reads them twice, nor keeps them."""
        # the floors as ``floors`` computes them, so the pair stays consistent
        # even where n*w sits on an integer in double precision
        res = self.n * self.weights
        np.floor(res, out=res)
        res /= self.n
        return np.subtract(self.weights, res, out=res)

    @cached_property
    def residual_cdf(self) -> np.ndarray:
        """The residuals of each row as a CDF, summed in place: nothing else reads them.

        A residual an ulp below 0 (n*w rounded up onto an integer) is no mass.
        A row with no residual mass stays all 0: it has no surplus to draw, or
        it lost its units to rounding.
        """
        cum = self.residuals()
        np.cumsum(np.maximum(cum, 0.0, out=cum), axis=1, out=cum)
        last = cum[:, -1:].copy()  # a view would overlap the output: NumPy would copy cum
        for s, mass in zip(self.floors[1], last[:, 0].tolist()):
            if s and not mass:
                raise ValidationError(f"n = {self.n} is past float precision for these "
                                      f"weights: the floors leave {s} units, and every "
                                      f"residual rounds to 0")
        return _frozen(np.divide(cum, last, out=cum, where=last > 0))

    def populations(self) -> list[WeightVector]:
        """Each row as a WeightVector of its own, for a scheme with no row
        kernel: a view of its weights, bit for bit the stored row."""
        each = [object.__new__(WeightVector) for _ in self.weights]
        for wv, w in zip(each, self.weights):
            vars(wv)["weights"] = w
        return each


@dataclass(frozen=True, eq=False, init=False)
class Allocation:
    """M nonnegative integer bin sizes summing exactly to ``total``."""

    sizes: np.ndarray
    total: int

    def __init__(self, sizes, total=None):
        error = "sizes must be a non-empty 1-d sequence of integers"
        arr = np.atleast_1d(_real_array(sizes, error))
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError(error)
        if arr.dtype.kind in "fO":  # floats, or Python ints past int64 (objects)
            num = arr.astype(float)
            whole = np.isfinite(num) & (num == np.floor(num))
            if not whole.all():
                i = int(np.flatnonzero(~whole)[0])
                raise ValidationError(f"size {arr[i]} at index {i} is not an integer")
            arr = num
        for bad, msg in ((arr < 0, "negative size {} at index {}"),
                         (arr > 2**53, "size {} at index {} is past 2**53")):
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValidationError(msg.format(int(arr[i]), i))
        arr = arr.astype(np.int64)
        # 2**53 is the limit on n that _check_n states. A float sum of whole
        # numbers is exact up to it, and at most it the int64 sum cannot wrap.
        if arr.sum(dtype=float) > 2**53 or not 1 <= (s := int(arr.sum())) <= 2**53:
            raise ValidationError("sizes must sum to a positive integer at most 2**53")
        if total is not None and total != s:
            raise ValidationError(f"sizes sum to {s}, declared total is {total!r}")
        object.__setattr__(self, "sizes", _frozen(arr))
        object.__setattr__(self, "total", s)

    @classmethod
    def _trusted(cls, sizes: np.ndarray, total: int) -> Allocation:
        """Freeze int64 sizes the library built to sum to total; no checks."""
        a = object.__new__(cls)
        object.__setattr__(a, "sizes", _frozen(sizes))
        object.__setattr__(a, "total", total)
        return a

    def __len__(self):
        return self.sizes.size


@dataclass(frozen=True, eq=False, init=False)
class ResidualVector:
    """Fractional residuals w[m] - Floor(n*w[m])/n, each in [0, 1/n)."""

    residuals: np.ndarray

    def __init__(self, residuals):
        arr = _real_array(residuals, "residuals must be real numbers")
        arr = np.array(arr, float, ndmin=1)  # a copy: the caller's stays writeable
        object.__setattr__(self, "residuals", _frozen(arr))

    def __len__(self):
        return self.residuals.size


def as_weights(w) -> WeightVector:
    return w if isinstance(w, WeightVector) else WeightVector(w)


def as_allocation(a) -> Allocation:
    return a if isinstance(a, Allocation) else Allocation(a)


def _check_n(n) -> int:
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        whole = None
    # past 2**53 the floats n*w no longer hold every whole unit
    if whole is None or n != whole or not 1 <= whole <= 2**53:
        raise ValidationError(f"n must be a positive integer at most 2**53, got {n!r}")
    return whole


def _lmse_rows(rows: _Rows, rngs=None) -> np.ndarray:
    """``lmse_partition`` of each row, as (R, M) int64 counts; draws nothing.

    One row finds its cut, the surplus-th largest residual, by a selection,
    O(M); many rows by one row-wise sort, cheaper than a selection per row.
    """
    (floors, surplus), res = rows.floors, rows.residuals()
    del rows  # see lmse_partition: the weights are freed before the selection's copy
    m = res.shape[1]
    kth = [m - max(s, 1) for s in surplus]
    if len(res) == 1:
        cut = np.partition(res[0], kth[0])[kth]  # a copy: the partitioned one is freed
    else:
        cut = np.sort(res, axis=1)[np.arange(len(res)), kth]
    take = res >= cut[:, None]
    # one row counts fastest alone, many rows with one reduce along them
    taken = [np.count_nonzero(take)] if len(take) == 1 else np.add.reduce(take, axis=1).tolist()
    for r, (taken, s) in enumerate(zip(taken, surplus)):
        if taken > s:
            take[r, (res[r] == cut[r]).nonzero()[0][s - taken:]] = False
    del res  # freed before the counts are built
    return floors + take


def lmse_partition(w, n) -> Allocation:
    """Partition n units across bins proportionally to w, minimizing MSE.

    Floors every expectation n*w[m], then gives one extra unit to each of the
    bins holding the largest fractional residuals until the total reaches n.
    Residual ties are broken by ascending index, so the output is
    bit-reproducible. O(M): a selection finds the surplus-th largest residual.
    """
    n = _check_n(n)
    # handed over, not kept: _lmse_rows frees weights built here once it has read them
    return Allocation._trusted(_lmse_rows(_Rows(as_weights(w).weights[None], n))[0], n)


def residuals(w, n) -> ResidualVector:
    """Fractional residuals w[m] - Floor(n*w[m])/n."""
    rv = object.__new__(ResidualVector)  # on its own fresh array: no copy to make
    vars(rv)["residuals"] = _frozen(_Rows(as_weights(w).weights[None], _check_n(n)).residuals()[0])
    return rv


def _discrepancy(a, w) -> np.ndarray:
    a, wv = as_allocation(a), as_weights(w)
    if len(a) != len(wv):
        raise ValidationError(f"length mismatch: {len(a)} sizes vs {len(wv)} weights")
    return a.sizes - a.total * wv.weights


# np.mean is the same add.reduce divided by the count, without its dispatch.
def mse(a, w) -> float:
    """Mean squared discrepancy (1/M) * sum (size[m] - N*w[m])^2."""
    d = _discrepancy(a, w)
    return float(np.add.reduce(d * d) / d.size)


def mae(a, w) -> float:
    """Mean absolute discrepancy (1/M) * sum |size[m] - N*w[m]|."""
    d = _discrepancy(a, w)
    return float(np.add.reduce(np.abs(d)) / d.size)


def check_theory1_bound(a, w) -> bool:
    """True iff |size[m] - N*w[m]| < 1 strictly, for every bin."""
    d = _discrepancy(a, w)
    return bool((np.abs(d) < 1.0).all())


def check_local_optimality(a, w) -> bool:
    """True iff no single-unit transfer between bins can lower the MSE.

    For a transfer of one unit from donor q (size >= 1) to receiver p, the
    MSE changes by (2/M) * (1 + d[p] - d[q]) with d = sizes - N*w. The check
    passes when every such change exceeds -LOCAL_OPTIMALITY_TOL.
    """
    av = as_allocation(a)
    d = _discrepancy(av, w)
    m = len(d)
    if m == 1:
        return True
    # The worst receiver for donor q is the smallest d[p] with p != q: the
    # smallest d overall, or the smallest of the others when q holds it.
    lo = int(d.argmin())
    worst = np.full(m, d[lo])
    worst[lo] = min(d[:lo].min(initial=np.inf), d[lo + 1:].min(initial=np.inf))
    delta = (2.0 / m) * (1.0 + worst - d)
    return bool((delta[av.sizes >= 1] > -LOCAL_OPTIMALITY_TOL).all())


def _compositions(n: int, m: int, memo: dict) -> np.ndarray:
    """All nonnegative m-part compositions of n, shape (C, m); memo holds sub-results."""
    if m == 1:  # int32 bounds the blocks below 10**7 parts; one part alone takes any n
        return np.array([[n]], dtype=np.int32 if n < 2**31 else np.int64)
    if (n, m) not in memo:
        blocks = []
        for first in range(n + 1):
            rest = _compositions(n - first, m - 1, memo)
            head = np.full((rest.shape[0], 1), first, dtype=np.int32)
            blocks.append(np.hstack([head, rest]))
        memo[n, m] = np.vstack(blocks)
    return memo[n, m]


def brute_force_partition(w, n) -> tuple[Allocation, float]:
    """Exhaustively minimize the MSE over all compositions of n into M parts.

    Independent oracle for the partition routine; rejects instances with more
    than ``BRUTE_FORCE_LIMIT`` compositions. Ties go to the lexicographically
    smallest composition.
    """
    wv = as_weights(w)
    n = _check_n(n)
    m = len(wv)
    count = math.comb(n + m - 1, m - 1)
    if count > BRUTE_FORCE_LIMIT:
        raise ValidationError(f"{count} compositions exceed the enumeration limit "
                              f"{BRUTE_FORCE_LIMIT}; shrink n or the number of bins")
    comps = _compositions(n, m, {})
    d = comps - n * wv.weights
    costs = np.mean(d * d, axis=1)
    best = int(np.argmin(costs))
    return Allocation._trusted(comps[best].astype(np.int64), n), float(costs[best])
