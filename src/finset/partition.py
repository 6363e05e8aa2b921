"""Least-mean-square-error integer partitioning of N units across M weighted bins.

Given nonnegative proportions w summing to 1 and an integer total n, each bin
gets Floor(n*w[m]) or Floor(n*w[m]) + 1 units, the surplus going to the bins of
the largest fractional residuals. That minimizes the mean squared discrepancy
(1/M) * sum (size[m] - n*w[m])^2 over all allocations of n. Also provided: the
MSE/MAE metrics, a strict |size - n*w| < 1 bound check, a single-unit-transfer
local-optimality check, and an exact min-plus DP over bins, the test oracle.
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

# brute_force_partition's bound on its DP table entries, (M - 1)*max(n + 1, 64)**2: ~1 s
BRUTE_FORCE_LIMIT = 10**8


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


def _normalised(weights) -> np.ndarray:
    """weights checked, over their sum, in a new array: ``WeightVector``'s one check."""
    arr = _real_array(weights, "weights must be real numbers").astype(float, copy=False)
    arr = arr if arr.ndim else arr.reshape(1)  # a scalar is one weight
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
        raise ValidationError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return arr / total


# init=False where a class defines its own __init__: dataclass would build, and
# compile, one more that is never used on every import
@dataclass(frozen=True, eq=False, init=False)
class WeightVector:
    """M nonnegative proportions summing to one: finite, >= 0 and summing to 1 within
    ``WEIGHT_SUM_TOL``, stored over their sum, so near-normalized weights are treated alike.
    """

    weights: np.ndarray

    def __init__(self, weights):
        object.__setattr__(self, "weights", _frozen(_normalised(weights)))

    def __len__(self):
        return self.weights.size


def _cdf(running: np.ndarray) -> np.ndarray:
    """Turn running sums of nonnegative mass, or (R, M) rows of them, into CDFs, in place.

    Sums of weights adding to 1 within rounding can pass 1 before the last entry,
    or end a few ulps short. Every entry at or above the smaller of 1 and the last
    is set to 1: the CDF is nondecreasing within [0, 1], as both count kernels need,
    and gives no shortfall to trailing zero-mass bins. Those entries are a suffix:
    one search finds it in one row, a compare against each row's bound in many.
    """
    if running.ndim == 1:
        running[running.searchsorted(min(running[-1], 1.0)):] = 1.0
    else:
        running[running >= np.minimum(running[:, -1:], 1.0)] = 1.0
    return running


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # faster than through a.flags
    return a


class _Rows:
    """R rows of weights at n units, and the split of each that the row kernels read.

    ``weights`` is (R, M), each row as WeightVector stores it. Each part is built for
    every row at once, row r as that row alone would give it, and only when read (at
    M = 1e6 one costs a systematic call); parts read by several callers are read-only.
    """

    def __init__(self, weights: np.ndarray, n: int, nw: np.ndarray | None = None):
        self.weights, self.n, self.nw, self.floors = weights, n, nw, None

    @cached_property
    def cdf(self) -> np.ndarray:
        """The running sums of each row as a CDF (see ``_cdf``)."""
        running = self.weights.cumsum(axis=1)
        _cdf(running[0] if len(running) == 1 else running)  # one row: one search
        return _frozen(running)

    def floored(self) -> np.ndarray:
        """floor(n*w), as floats in a new array: of ``nw``, n*w formed once, if given."""
        nw = self.nw
        return np.floor(nw) if nw is not None else np.floor(f := self.n * self.weights, out=f)

    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """floor(n*w) and the units each row's floors leave (refused outside [0, M]: n*w
        lost units), both read-only int64 and kept as ``floors`` for a step's next
        reader, and the ``floored()`` they come from, which each reader floors for itself."""
        f = self.floored()
        if self.floors is None:
            floors, m = _frozen(f.astype(np.int64)), f.shape[1]
            surplus = np.subtract.reduce(floors, axis=1, initial=self.n)  # n - sum(floors)
            if not 0 <= min(left := surplus.tolist()) <= max(left) <= m:
                s = next(s for s in left if not 0 <= s <= m)  # named: the first such row
                raise ValidationError(f"n = {self.n} is past float precision for these "
                                      f"weights: the floors leave {s} units for {m} bins")
            self.floors = floors, _frozen(surplus)
        return (*self.floors, f)

    def residuals(self, floored: np.ndarray) -> np.ndarray:
        """w - floor(n*w)/n, in place over ``floored()``: read once, not kept."""
        floored /= self.n
        return np.subtract(self.weights, floored, out=floored)

    def residual_cdf(self, res: np.ndarray, surplus: np.ndarray) -> np.ndarray:
        """Residuals as CDFs, summed over them in place; surplus is ``split()``'s. One an ulp
        below 0 (n*w rounded up onto an integer) is no mass; a row with none (no surplus, or
        lost) stays 0: only then is the divide masked, as the mask costs ~2/3 of the divide."""
        cum = np.cumsum(np.maximum(res, 0.0, out=res), axis=1, out=res)
        last = cum[:, -1:].copy()  # a view would overlap the output: NumPy would copy cum
        if 0.0 in (masses := last[:, 0].tolist()):
            for s, mass in zip(surplus.tolist(), masses):  # the first row that lost its units
                if s and not mass:
                    raise ValidationError(f"n = {self.n} is past float precision for these "
                                          f"weights: the floors leave {s} units, and every "
                                          f"residual rounds to 0")
        return np.divide(cum, last, out=cum, where=True if last.all() else last > 0)

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


def _stored(w) -> np.ndarray:
    """The weights ``WeightVector(w)`` stores, for a caller that only reads them."""
    return w.weights if isinstance(w, WeightVector) else _normalised(w)


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
    floors, surplus, res = rows.split()
    res = rows.residuals(res)
    del rows  # see lmse_partition: the weights are freed before the selection's copy
    m = res.shape[1]
    if len(res) == 1:
        k = m - max(s := surplus.item(), 1)
        cut = [np.partition(res[0], k)[k]]  # a copy: the partitioned one is freed
        take = res >= cut[0]
        over = [(0, t - s)] if (t := np.count_nonzero(take)) > s else []  # counted fastest alone
    else:
        cut = np.sort(res, axis=1)[np.arange(len(res)), m - np.maximum(surplus, 1)]
        take = res >= cut[:, None]
        extra = np.add.reduce(take, axis=1) - surplus
        over = [(r, extra[r]) for r in np.flatnonzero(extra > 0).tolist()]
    for r, e in over:  # the rows whose cut ties: the last e tied bins give their unit back
        take[r, (res[r] == cut[r]).nonzero()[0][-e:]] = False
    del res  # freed before the counts are built
    return floors + take


def lmse_partition(w, n) -> Allocation:
    """Partition n units across bins proportionally to w, minimizing MSE.

    Floors every expectation n*w[m], then gives one extra unit to each bin of the
    largest fractional residuals until the total reaches n; ties go to the lower
    index, so the output is bit-reproducible. O(M): one selection finds the cut.
    """
    n = _check_n(n)
    # handed over, not kept: _lmse_rows frees weights built here once it has read them
    return Allocation._trusted(_lmse_rows(_Rows(_stored(w)[None], n))[0], n)


def residuals(w, n) -> ResidualVector:
    """Fractional residuals w[m] - Floor(n*w[m])/n."""
    rows = _Rows(_stored(w)[None], _check_n(n))
    rv = object.__new__(ResidualVector)  # on its own fresh array: no copy to make
    vars(rv)["residuals"] = _frozen(rows.residuals(rows.floored())[0])
    return rv


def _discrepancy(a, w) -> np.ndarray:
    a, w = as_allocation(a), _stored(w)
    if len(a) != w.size:
        raise ValidationError(f"length mismatch: {len(a)} sizes vs {w.size} weights")
    return a.sizes - a.total * w


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
    """True iff no single-unit transfer between bins can lower the MSE: moving one unit
    from donor q (size >= 1) to receiver p changes it by (2/M) * (1 + d[p] - d[q]), with
    d = sizes - N*w, and every such change must exceed -LOCAL_OPTIMALITY_TOL.
    """
    d = _discrepancy(av := as_allocation(a), w)
    # (1 + d[p]) - d[q] rounds monotonically in d[p] and -d[q]: the worst change
    # takes the smallest d and a donor's largest. Two bins hold them, or every
    # donor's d is the smallest, x, and (1 + x) - x >= 0 bounds every change.
    worst = (1.0 + d.min()) - np.maximum.reduce(d, where=av.sizes >= 1, initial=-np.inf)
    return bool((2.0 / len(d)) * worst > -LOCAL_OPTIMALITY_TOL)


def brute_force_partition(w, n) -> tuple[Allocation, float]:
    """Minimize the MSE over all compositions of n into M parts, exactly, by a min-plus DP.

    An independent oracle, using only that the cost is one term per bin: from the
    last bin back, for each k units taken before, it keeps the least cost of the
    rest and this bin's smallest size reaching it; a pass from k = 0 reads the
    sizes. Ties go to the lexicographically smallest sizes, on the DP's own float
    sums. It keeps O(M*n) memory and refuses work past ``BRUTE_FORCE_LIMIT``.
    """
    w, n = _stored(w), _check_n(n)
    m, nw, ks = w.size, n * w, [0]  # ks: the units the bins before each bin take
    if (work := (m - 1) * max(n + 1, 64) ** 2) > BRUTE_FORCE_LIMIT:  # a bin's calls: ~64**2
        raise ValidationError(f"M = {m} bins at n = {n} take {work} table entries, past the bound "
                              f"(M - 1)*max(n + 1, 64)**2 <= {BRUTE_FORCE_LIMIT}; shrink n or M")
    if m > 1:
        cost = np.square(np.arange(n + 1.0) - nw[:, None])  # [b, s]: bin b's term at size s
        best = np.concatenate([cost[-1, ::-1], np.full(n, np.inf)])  # [k]: the rest's least
        window = np.ndarray((n + 1, n + 1), float, best, 0, (8, 8))  # [k, s]: best[k + s]
        size, rows = np.empty((m - 1, n + 1), np.int64), 2**16 // n + 1  # a block: ~2**16
        for b in range(m - 2, -1, -1):
            for k in range(0, n + 1, rows):  # later rows read best[k + rows:]: update in place
                table = window[k:k + rows] + cost[b]
                size[b, k:k + rows] = table.argmin(axis=1)
                np.minimum.reduce(table, axis=1, out=best[k:k + len(table)])
        for b in range(m - 1):
            ks.append(ks[-1] + int(size[b, ks[-1]]))
    d = (sizes := np.diff(ks + [n])) - nw
    return Allocation._trusted(sizes, n), float(np.mean(d * d))
