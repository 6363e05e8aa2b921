import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finset import partition

from finset.partition import (
    LOCAL_OPTIMALITY_TOL,
    Allocation,
    ValidationError,
    WeightVector,
    brute_force_partition,
    check_local_optimality,
    check_theory1_bound,
    lmse_partition,
    mae,
    mse,
    residuals,
)


class TestWeightVector:
    def test_renormalizes_within_tolerance(self):
        w = WeightVector([0.5, 0.5 + 5e-10])
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_entry_with_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            WeightVector([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            WeightVector([0.5, 0.6])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            WeightVector([])

    @pytest.mark.parametrize("weights, message", [
        ([0.5, np.nan, -0.5, 1.0], "non-finite weight nan at index 1"),
        ([0.5, -0.5, np.nan, 1.0], "non-finite weight nan at index 2"),
        ([1.0, -np.inf], "non-finite weight -inf at index 1"),
        ([0.0, np.inf], "non-finite weight inf at index 1"),
        ([np.inf, np.nan], "non-finite weight inf at index 0"),
        ([np.inf, -np.inf], "non-finite weight inf at index 0"),
        ([0.6, -0.0, -0.1, 0.5], "negative weight -0.1 at index 2"),
        ([1e308, 1e308], "weights sum to inf, expected 1 within 1e-09"),
        ([0.5, 0.6], "weights sum to 1.1, expected 1 within 1e-09"),
        ([[0.5, 0.5]], "weights must be a non-empty 1-d sequence"),
    ])
    def test_names_the_first_bad_entry_and_warns_nothing(self, weights, message):
        # [1e308, 1e308] overflows the sum and [inf, -inf] sums to nan: each
        # used to leak NumPy's RuntimeWarning ahead of the ValidationError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                WeightVector(weights)
        assert str(info.value) == message

    def test_stores_weights_over_their_sum_bit_for_bit(self):
        g = np.random.default_rng(71)
        for m in (1, 2, 3, 100, 1000, 10**5):
            for raw in (g.random(m), g.lognormal(0.0, 3.0, m), g.random(m) * (g.random(m) < 0.5)):
                raw[0] += 1e-300
                x = raw / raw.sum() * (1.0 + 1e-10 * g.standard_normal())
                w = WeightVector(x)
                assert np.array_equal(w.weights, x / x.sum())
                assert not w.weights.flags.writeable and x.flags.writeable


class TestAllocation:
    def test_sum_mismatch(self):
        with pytest.raises(ValidationError):
            Allocation([1, 2], total=4)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Allocation([3, -1], total=2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            Allocation([1.5, 0.5])

    @pytest.mark.parametrize("sizes, message", [
        ([2**63], r"9223372036854775808 at index 0 is past 2\*\*53"),
        ([2**62, 2**62], r"at index 0 is past 2\*\*53"),
        ([float("nan")], "nan at index 0 is not an integer"),
        ([float("inf")], "inf at index 0 is not an integer"),
        ([1e30], r"at index 0 is past 2\*\*53"),
        ([2**53, 1], r"sum to a positive integer at most 2\*\*53"),
        (np.full(1100, 2**53), r"at most 2\*\*53"),  # its int64 sum wraps
        ([1 + 2j], "sequence of integers"),
        ([1, None], "None at index 1 is not an integer"),
    ], ids=["2**63", "2**62x2", "nan", "inf", "1e30", "sum 2**53+1", "sum wraps", "complex",
            "None"])
    def test_rejects_sizes_int64_cannot_hold(self, sizes, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                Allocation(sizes)

    def test_accepts_total_of_2_53(self):
        assert Allocation([2**53 - 1, 1]).total == 2**53


class TestLmsePartition:
    def test_exact_integer_expectations(self):
        assert list(lmse_partition([0.2, 0.3, 0.5], 10).sizes) == [2, 3, 5]

    def test_surplus_goes_to_largest_residual(self):
        # floors are (2,1,1); largest residual 0.14 at index 1 gets the extra unit
        assert list(lmse_partition([0.46, 0.34, 0.20], 5).sizes) == [2, 2, 1]

    def test_single_bin(self):
        assert list(lmse_partition([1.0], 7).sizes) == [7]

    def test_tie_break_ascending_index(self):
        # all residuals tie at 0.125; first two indices win
        assert list(lmse_partition([0.25] * 4, 2).sizes) == [1, 1, 0, 0]

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            lmse_partition([0.5, 0.6], 4)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValidationError):
            lmse_partition([1.0], 0)

    @pytest.mark.parametrize("n", [float("nan"), float("inf")])
    def test_non_finite_n_rejected(self, n):
        with pytest.raises(ValidationError, match="positive integer"):
            lmse_partition([0.5, 0.5], n)

    def test_n_past_float_precision_rejected(self):
        # n*w loses whole units here: the floors leave a surplus of 5 > 2M
        with pytest.raises(ValidationError):
            lmse_partition([0.3, 0.7], 2**56 + 1)

    def test_n_up_to_2_53_accepted(self):
        assert list(lmse_partition([0.5, 0.5], 2**53).sizes) == [2**52, 2**52]
        with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
            lmse_partition([0.5, 0.5], 2**53 + 1)

    def test_floors_past_float_precision_rejected(self):
        # n is below 2**53, but n*w rounds up: the floors already exceed n
        with pytest.raises(ValidationError, match="float precision"):
            lmse_partition([0.18092580658734178, 0.8190741934126583], 9007199254447305)

    def test_n_smaller_than_positive_weight_count(self):
        a = lmse_partition([0.4, 0.3, 0.3], 1)
        assert a.sizes.sum() == 1


# Rows checked together must name the first failing row, as a loop over the
# rows did. At n = 2**55 + 3 (a float of 2**55) these three-bin rows' floors
# leave 3 (valid, at most M), -1 and M + 1 = 4 units.
PAST_N = 2**55 + 3
FINE_ROWS = [[1.0, 0.0, 0.0], [0.5, 0.25, 0.25]]
LEAVES_MINUS_ONE = [0.3879887635197909, 0.21036854944026534, 0.4016426870399439]
LEAVES_M_PLUS_ONE = [0.12603810693225706, 0.16340873706198383, 0.7105531560057591]


@pytest.mark.parametrize("bad, left", [
    ([LEAVES_MINUS_ONE], -1),
    ([LEAVES_M_PLUS_ONE], 4),
    ([LEAVES_MINUS_ONE, LEAVES_M_PLUS_ONE], -1),
    ([LEAVES_M_PLUS_ONE, LEAVES_MINUS_ONE], 4),
], ids=["-1 units", "M + 1 units", "-1 then M + 1", "M + 1 then -1"])
def test_weight_rows_refuse_the_first_row_whose_floors_lose_units(bad, left):
    rows = partition._Rows(np.array(FINE_ROWS + bad), PAST_N)
    with pytest.raises(ValidationError) as info:
        rows.split()
    assert str(info.value) == (f"n = {PAST_N} is past float precision for these weights: "
                               f"the floors leave {left} units for 3 bins")
    for fine in FINE_ROWS:  # each row alone is fine
        assert partition._Rows(np.array([fine]), PAST_N).split()[1].tolist() == [3]


def test_weight_rows_refuse_the_row_whose_residuals_all_round_to_0():
    # row 0 leaves no unit and has no residual mass, row 1 leaves one with mass,
    # and row 2, the stored weights of test_boundary's LOST_UNIT, leaves one
    # with none; only row 2 is refused
    n = 8443287019856399
    rows = partition._Rows(np.array([[1.0, 0.0], [0.5, 0.5],
                                     [0.5207222343025516, 0.47927776569744834]]), n)
    _, surplus, floored = rows.split()
    assert surplus.tolist() == [0, 1, 1]
    with pytest.raises(ValidationError) as info:
        rows.residual_cdf(rows.residuals(floored), surplus)
    assert str(info.value) == (f"n = {n} is past float precision for these weights: the floors "
                               f"leave 1 units, and every residual rounds to 0")
    fine = partition._Rows(rows.weights[:2], n)  # without row 2, the CDFs are built
    cdf = fine.residual_cdf(fine.residuals(fine.split()[2]), fine.split()[1])
    assert cdf[0].tolist() == [0.0, 0.0] and cdf[1].tolist() == [0.5, 1.0]


class TestResiduals:
    def test_fractional_parts(self):
        r = residuals([0.46, 0.34, 0.20], 5).residuals
        assert r == pytest.approx([0.06, 0.14, 0.0], abs=1e-12)

    def test_zero_for_exact(self):
        assert residuals([0.2, 0.3, 0.5], 10).residuals == pytest.approx([0, 0, 0])

    def test_single(self):
        assert residuals([1.0], 3).residuals == pytest.approx([0.0])


class TestMetrics:
    def test_mse_zero_on_exact(self):
        assert mse([2, 3, 5], [0.2, 0.3, 0.5]) == pytest.approx(0.0)
        assert mse([7], [1.0]) == pytest.approx(0.0)

    def test_mse_value(self):
        assert mse([2, 2, 1], [0.46, 0.34, 0.20]) == pytest.approx(0.06)

    def test_mae_values(self):
        assert mae([2, 3, 5], [0.2, 0.3, 0.5]) == pytest.approx(0.0)
        assert mae([2, 2, 1], [0.46, 0.34, 0.20]) == pytest.approx(0.2)
        assert mae([0, 2], [0.5, 0.5]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            mse([1, 1], [1.0])

    def test_bit_equal_to_np_mean(self):
        g = np.random.default_rng(73)
        for m in (1, 2, 7, 100, 129, 1000, 10**5):
            for _ in range(3):
                raw = g.lognormal(0.0, 2.0, m)
                w = WeightVector(raw / raw.sum())
                sizes = g.integers(0, 50, m)
                sizes[0] += 1
                d = sizes - sizes.sum() * w.weights
                assert mse(sizes, w) == float(np.mean(d * d))
                assert mae(sizes, w) == float(np.mean(np.abs(d)))


class TestBoundCheck:
    def test_partition_output_passes(self):
        a = lmse_partition([0.46, 0.34, 0.20], 5)
        assert check_theory1_bound(a, [0.46, 0.34, 0.20])

    def test_unit_discrepancy_fails(self):
        assert not check_theory1_bound([2, 0], [0.5, 0.5])

    def test_zero_discrepancy_passes(self):
        assert check_theory1_bound([1, 1], [0.5, 0.5])


class TestLocalOptimality:
    def test_partition_output_is_stable(self):
        a = lmse_partition([0.46, 0.34, 0.20], 5)
        assert check_local_optimality(a, [0.46, 0.34, 0.20])

    def test_improvable_allocation_fails(self):
        assert not check_local_optimality([0, 2], [0.5, 0.5])

    def test_single_bin_trivially_stable(self):
        assert check_local_optimality([7], [1.0])

    def test_tolerance_is_a_constant(self):
        # tol=nan made an optimal allocation fail the check
        assert LOCAL_OPTIMALITY_TOL == 1e-12
        with pytest.raises(TypeError):
            check_local_optimality([1, 1], [0.5, 0.5], tol=float("nan"))

    def test_matches_all_pairs_oracle(self):
        g = np.random.default_rng(12)
        verdicts = set()
        for trial in range(4000):
            m = int(g.integers(1, 60))
            raw = g.lognormal(0.0, 1.0, m) if trial % 2 else g.integers(0, 3, m) + 1.0
            w = raw / raw.sum()
            n = int(g.integers(1, 4 * m + 2))
            sizes = lmse_partition(w, n).sizes.copy()
            if trial % 3:  # move one unit, usually breaking optimality
                q, p = g.integers(m, size=2)
                if sizes[q] > 0:
                    sizes[q] -= 1
                    sizes[p] += 1
            got = check_local_optimality(sizes, w)
            assert got == all_pairs_local_optimality(sizes, w), trial
            verdicts.add(got)
        assert verdicts == {True, False}


def all_pairs_local_optimality(sizes, w, tol=1e-12):
    """Reference check: the (2/M)(1 + d[p] - d[q]) transfer matrix over all pairs."""
    wv = WeightVector(w)
    a = Allocation(sizes)
    d = a.sizes - a.total * wv.weights
    m = len(d)
    delta = (2.0 / m) * (1.0 + d[:, None] - d[None, :])
    mask = (a.sizes >= 1)[None, :] & ~np.eye(m, dtype=bool)
    return bool(np.all(delta[mask] > -tol))


@st.composite
def allocation_cases(draw):
    """(sizes, weights) of M <= 12 bins. The weights are few distinct whole
    numbers, so that d values tie, or spread floats; the sizes are an LMSE
    partition, one unit moved from it, or any sizes, zero-size bins included."""
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    else:
        raw = draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
    w = np.asarray(raw, float) / np.sum(raw)
    n = draw(st.integers(1, 4 * m + 2))
    kind = draw(st.sampled_from(["lmse", "moved", "any"]))
    if kind == "any":
        return draw(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any)), w
    sizes = lmse_partition(w, n).sizes.tolist()
    if kind == "moved":
        q, p = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if sizes[q]:
            sizes[q] -= 1
            sizes[p] += 1
    return sizes, w


@settings(max_examples=500, deadline=None)
@example(([7], np.array([1.0])))  # M = 1
@example(([3], np.array([1.0])))
@example(([0, 2], np.array([0.5, 0.5])))  # M = 2: the one donor gives away a unit it should keep
@example(([2, 0], np.array([0.5, 0.5])))
@example(([1, 1], np.array([0.5, 0.5])))  # tied d
@example(([2, 0], np.array([1.0, 0.0])))  # the one donor's d ties the smallest
@example(([1, 1, 0], np.array([0.25, 0.25, 0.5])))  # tied donors, a zero-size receiver
@given(allocation_cases())
def test_local_optimality_equals_the_all_pairs_definition(case):
    sizes, w = case
    assert check_local_optimality(sizes, w) == all_pairs_local_optimality(sizes, w)


# the six public calls that read weights, each on weights w of two bins
ENTRY_POINTS = {
    "lmse_partition": lambda w: lmse_partition(w, 5),
    "residuals": lambda w: residuals(w, 5),
    "mse": lambda w: mse([2, 3], w),
    "mae": lambda w: mae([2, 3], w),
    "check_theory1_bound": lambda w: check_theory1_bound([2, 3], w),
    "check_local_optimality": lambda w: check_local_optimality([2, 3], w),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_each_call_checks_raw_weights_once_and_held_ones_never(call, monkeypatch):
    checks = []
    check = partition._normalised
    held = WeightVector([0.4, 0.6])
    monkeypatch.setattr(partition, "_normalised", lambda w: checks.append(w) or check(w))
    raw = [0.4, 0.6]
    call(raw)
    assert checks == [raw]
    checks.clear()
    call(held)
    assert checks == []


WEIGHT_ERRORS = {  # bad weights, and WeightVector's message for them
    "scalar": (0.5, "weights sum to 0.5, expected 1 within 1e-09"),
    "2-d": ([[0.4, 0.6]], "weights must be a non-empty 1-d sequence"),
    "empty": ([], "weights must be a non-empty 1-d sequence"),
    "nan": ([0.5, np.nan], "non-finite weight nan at index 1"),
    "+inf": ([np.inf, 0.0], "non-finite weight inf at index 0"),
    "-inf": ([1.0, -np.inf], "non-finite weight -inf at index 1"),
    "overflowing sum": ([1e308, 1e308], "weights sum to inf, expected 1 within 1e-09"),
    "off the simplex": ([0.5, 0.6], "weights sum to 1.1, expected 1 within 1e-09"),
}


@pytest.mark.parametrize("weights, message", WEIGHT_ERRORS.values(), ids=WEIGHT_ERRORS)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.filterwarnings("error")
def test_each_call_refuses_bad_weights_as_weightvector_does(call, weights, message):
    for refuse in (WeightVector, call):
        with pytest.raises(ValidationError) as info:
            refuse(weights)
        assert str(info.value) == message


def test_a_scalar_weight_is_one_bin():
    assert lmse_partition(1.0, 5).sizes.tolist() == [5]
    assert residuals(1.0, 5).residuals.tolist() == [0.0]
    assert mse([5], 1.0) == mae([5], 1.0) == 0.0
    assert check_theory1_bound([5], 1.0) and check_local_optimality([5], 1.0)


class TestBruteForce:
    def test_small_instance(self):
        alloc, cost = brute_force_partition([0.46, 0.34, 0.20], 5)
        assert list(alloc.sizes) == [2, 2, 1]
        assert cost == pytest.approx(0.06)

    def test_trivial_instances(self):
        alloc, cost = brute_force_partition([0.5, 0.5], 2)
        assert list(alloc.sizes) == [1, 1] and cost == pytest.approx(0.0)
        alloc, cost = brute_force_partition([1.0], 4)
        assert list(alloc.sizes) == [4] and cost == pytest.approx(0.0)

    def test_enumeration_released_after_call(self):
        # 1.2M compositions; none of them may stay cached once the call returns
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = brute_force_partition(np.full(6, 1 / 6), 40)
            del result
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_scale_guard(self):
        # 10001**2 table entries, one bin's table just past BRUTE_FORCE_LIMIT
        with pytest.raises(ValidationError, match="shrink"):
            brute_force_partition([0.5, 0.5], 10**4)

    def test_refuses_past_the_bound_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError) as info:
            brute_force_partition([0.5, 0.5], 9_999_998)
        assert time.perf_counter() - start < 0.1
        assert f"(M - 1)*max(n + 1, 64)**2 <= {partition.BRUTE_FORCE_LIMIT}" in str(info.value)

    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_largest_accepted_instance_is_quick_and_small(self, m):
        n = int((partition.BRUTE_FORCE_LIMIT // (m - 1)) ** 0.5) - 1  # n = 9999, 3332, 1004
        w = np.random.default_rng(m).random(m)
        w /= w.sum()
        with pytest.raises(ValidationError, match="shrink"):
            brute_force_partition(w, n + 1)
        start = time.perf_counter()
        alloc, cost = brute_force_partition(w, n)
        assert time.perf_counter() - start < 1.0
        assert alloc.sizes.sum() == n and cost == pytest.approx(mse(lmse_partition(w, n), w))
        tracemalloc.start()
        try:
            brute_force_partition(w, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


weights_strategy = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=25
).filter(lambda xs: sum(xs) > 1e-6)


@settings(max_examples=200, deadline=None)
@given(weights_strategy, st.integers(1, 500))
def test_partition_invariants(raw, n):
    w = np.asarray(raw) / sum(raw)
    a = lmse_partition(w, n)
    assert int(a.sizes.sum()) == n
    assert check_theory1_bound(a, w)
    assert check_local_optimality(a, w)
    floors = np.floor(n * WeightVector(w).weights)
    assert np.all(a.sizes >= floors) and np.all(a.sizes <= floors + 1)
    # zero-weight bins receive nothing
    assert np.all(a.sizes[WeightVector(w).weights == 0.0] == 0)
    # determinism
    assert np.array_equal(a.sizes, lmse_partition(w, n).sizes)


@settings(max_examples=100, deadline=None)
@given(weights_strategy.filter(lambda xs: len(xs) <= 4), st.integers(1, 10))
def test_partition_matches_brute_force(raw, n):
    w = np.asarray(raw) / sum(raw)
    a = lmse_partition(w, n)
    _, best = brute_force_partition(w, n)
    assert mse(a, w) <= best + 1e-12


def compositions(n, m):
    """Every composition of n into m nonnegative parts, in lexicographic order."""
    head = np.array(list(itertools.product(range(n + 1), repeat=m - 1)), dtype=np.int64)
    head = head.reshape((n + 1) ** (m - 1), m - 1)
    head = head[head.sum(axis=1) <= n]
    return np.hstack([head, n - head.sum(axis=1, keepdims=True)])


def enumerated(w, n):
    """A second oracle for M <= 4, n <= 8: every composition, each costed as
    brute_force_partition's DP sums it, term 0 + (term 1 + (... + term M-1)).

    Returns the compositions, those sums, and the first composition (in
    lexicographic order) with the least sum.
    """
    nw = n * WeightVector(w).weights
    comps = compositions(n, nw.size)
    terms = (comps - nw) ** 2
    total = terms[:, -1]
    for j in range(nw.size - 2, -1, -1):
        total = terms[:, j] + total
    return comps, total, comps[int(np.argmin(total))]


# weights of k/8 for n <= 8: every target, term and sum is exact, so exact ties
# stay ties in every summation order
DYADIC = [np.array(raw) / sum(raw) for m in range(1, 5)
          for raw in itertools.product(range(5), repeat=m) if sum(raw) in (1, 2, 4, 8)]


class TestOracleAgainstEnumeration:
    @pytest.mark.parametrize("w, n, sizes", [
        ([0.5, 0.5], 1, [0, 1]),
        ([0.25, 0.25, 0.5], 1, [0, 0, 1]),
        ([0.5, 0.0, 0.5], 3, [1, 0, 2]),  # [2, 0, 1] costs the same
        ([0.0, 0.5, 0.5], 1, [0, 0, 1]),
        ([0.0, 1.0, 0.0], 3, [0, 3, 0]),
    ])
    def test_exact_ties_go_to_the_smallest_sizes(self, w, n, sizes):
        alloc, cost = brute_force_partition(w, n)
        assert alloc.sizes.tolist() == sizes == enumerated(w, n)[2].tolist()
        assert cost == mse(alloc, w)

    def test_equals_enumeration_on_exact_weights(self):
        assert len(DYADIC) > 100 and sum((w == 0).any() for w in DYADIC) > 50
        for w in DYADIC:
            for n in range(1, 9):
                alloc, cost = brute_force_partition(w, n)
                sizes = enumerated(w, n)[2]
                assert alloc.sizes.tolist() == sizes.tolist(), (w, n)
                d = sizes - n * w
                assert cost == np.mean(d * d), (w, n)

    @settings(max_examples=300, deadline=None)
    @given(weights_strategy.filter(lambda xs: len(xs) <= 4), st.integers(1, 8))
    def test_equals_enumeration(self, raw, n):
        w = np.asarray(raw) / sum(raw)
        alloc, cost = brute_force_partition(w, n)
        comps, total, first = enumerated(w, n)
        at = int(np.flatnonzero((comps == alloc.sizes).all(axis=1))[0])
        # the DP reaches the least of these sums exactly: a float sum never falls
        # as a term rises. Where one composition alone reaches it, that is the
        # DP's; where several do, a sum may round a worse tail onto the least.
        assert total[at] == total.min()
        if np.count_nonzero(total == total.min()) == 1:
            assert alloc.sizes.tolist() == first.tolist()
        d = alloc.sizes - n * WeightVector(w).weights
        assert cost == np.mean(d * d)


@settings(max_examples=300, deadline=None)
@given(weights_strategy.filter(lambda xs: len(xs) <= 4), st.integers(1, 8))
def test_partition_minimises_every_symmetric_convex_cost(raw, n):
    # Hamilton's method: the greedy also minimises sum |d| (what mae reports),
    # sum d**4 and max |d| over all compositions
    w = np.asarray(raw) / sum(raw)
    nw = n * WeightVector(w).weights
    got = np.abs(lmse_partition(w, n).sizes - nw)
    every = np.abs(compositions(n, nw.size) - nw)
    for cost in (lambda d: d.sum(axis=-1), lambda d: (d**4).sum(axis=-1),
                 lambda d: d.max(axis=-1)):
        assert cost(got) <= cost(every).min() + 1e-12


def test_exactness_when_expectations_integral():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 20)) * m
        counts = rng.multinomial(n, np.full(m, 1 / m))
        w = counts / n
        a = lmse_partition(w, n)
        assert np.array_equal(a.sizes, counts)
        assert mse(a, w) == pytest.approx(0.0, abs=1e-18)
