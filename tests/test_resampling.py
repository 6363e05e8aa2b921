import math
import tracemalloc

import numpy as np
import pytest

from finset.cli import EXIT_VALIDATION, main
from finset.partition import (
    Allocation,
    ResidualVector,
    ValidationError,
    WeightVector,
    _cdf,
    _Rows,
    as_weights,
    brute_force_partition,
    check_local_optimality,
    check_theory1_bound,
    lmse_partition,
    mae,
    mse,
)
from finset.resampling import (
    RESAMPLERS,
    ParticleSet,
    counts_to_indices,
    msv_resample,
    multinomial_resample,
    residual_resample,
    rsr_resample,
    sampling_variance,
    systematic_resample,
    _ROW_KERNELS,
    _draw_counts,
    _multinomial_rows,
    _rsr_counts,
    _systematic_counts,
)
from finset.rng import _BLOCK, RngStream


def pset(weights):
    w = WeightVector(weights)
    return ParticleSet(np.arange(len(w), dtype=float), w)


def cdf_of(weights):
    """The CDF the schemes read for weights: their stored running sums through _cdf."""
    return _cdf(np.cumsum(as_weights(weights).weights))


def at_offset(kernel, cdf, n, u):
    """The counts of one CDF at offset u, from a kernel of (R, M) CDF rows."""
    return kernel(cdf[None], n, np.array([u]))[0]


class TestParticleSet:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ParticleSet([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("state", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected(self, state):
        # it used to pass, then fail the next SIR step as a particle collapse
        with pytest.raises(ValidationError, match=f"states must be finite, got {state}"):
            ParticleSet([0.0, state], [0.5, 0.5])

    def test_weight_validation_propagates(self):
        with pytest.raises(ValidationError):
            ParticleSet([1.0, 2.0], [0.5, 0.6])


@pytest.mark.parametrize("build", [
    lambda: WeightVector([0.5, 0.5]),
    lambda: Allocation([1, 2]),
    lambda: ResidualVector([0.1, 0.2]),
    lambda: ParticleSet([0.0, 1.0], [0.5, 0.5]),
], ids=["WeightVector", "Allocation", "ResidualVector", "ParticleSet"])
def test_array_value_types_compare_by_identity(build):
    a, b = build(), build()
    assert a == a
    assert (a == b) is False
    assert hash(a) == hash(a)


@pytest.mark.parametrize("build, stored", [
    (lambda x: ParticleSet(x, [0.5, 0.5]), lambda v: v.states),
    (ResidualVector, lambda v: v.residuals),
], ids=["ParticleSet", "ResidualVector"])
def test_constructors_leave_the_caller_array_writeable(build, stored):
    caller = np.array([0.1, 0.2])
    value = build(caller)
    assert caller.flags.writeable
    caller[0] = 7.0
    assert list(stored(value)) == [0.1, 0.2]
    assert not stored(value).flags.writeable


class TestMsv:
    def test_uniform_weights_all_ones(self):
        m = 8
        counts = msv_resample(pset([1 / m] * m), m)
        assert list(counts.sizes) == [1] * m

    def test_matches_partition_example(self):
        counts = msv_resample(pset([0.46, 0.34, 0.20]), 5)
        assert list(counts.sizes) == [2, 2, 1]
        assert sampling_variance(counts, [0.46, 0.34, 0.20]) == pytest.approx(0.06)

    def test_single_particle(self):
        assert list(msv_resample(pset([1.0]), 9).sizes) == [9]

    def test_consumes_no_randomness(self):
        rng = RngStream(0)
        msv_resample(pset([0.46, 0.34, 0.20]), 5, rng)
        assert rng.draws == 0


class TestMultinomial:
    def test_all_mass_on_one_particle(self):
        counts = multinomial_resample(pset([1.0, 0.0]), 4, RngStream(99))
        assert list(counts.sizes) == [4, 0]

    def test_law_of_large_numbers(self):
        n = 100_000
        counts = multinomial_resample(pset([0.5, 0.5]), n, RngStream(5))
        assert counts.sizes[0] / n == pytest.approx(0.5, abs=0.01)

    def test_golden_vector(self):
        # frozen from the pinned SplitMix64 stream
        counts = multinomial_resample(pset([0.3, 0.7]), 10, RngStream(42))
        assert list(counts.sizes) == [4, 6]

    def test_consumes_n_uniforms(self):
        rng = RngStream(1)
        multinomial_resample(pset([0.3, 0.7]), 13, rng)
        assert rng.draws == 13

    def test_largest_uniform_skips_trailing_zero_weight(self):
        # the running sums of these weights end at 1 - 2**-53, the largest
        # uniform RngStream emits
        class TopStream(RngStream):
            def next_uniforms(self, k):
                return np.full(k, 1 - 2**-53)

        w = WeightVector([0.1] * 10 + [0.0])
        counts = multinomial_resample(w, 3, TopStream(0)).sizes
        assert list(counts) == [0] * 9 + [3, 0]

    def test_draws_past_memory_are_refused(self, monkeypatch, capsys):
        # a stub refuses every array past 2**30 entries: no real allocation is tried
        # for the 10**12 keys and uniforms these draws need
        real = np.empty

        def empty(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 2**30:
                raise MemoryError("stubbed: no memory for this array")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        message = ("n = 1000000000000 multinomial draws need 14901.2 GiB of memory, "
                   "more than can be allocated")
        rng = RngStream(3)
        with pytest.raises(ValidationError) as info:
            multinomial_resample([0.5, 0.5], 10**12, rng)
        assert str(info.value) == message and rng.draws == 0
        argv = ["resample", "--method", "multinomial", "--weights", "0.5,0.5", "--n", str(10**12)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSystematic:
    def test_forced_offset_zero_even_split(self):
        counts = at_offset(_systematic_counts, cdf_of([0.5, 0.5]), 2, 0.0)
        assert list(counts) == [1, 1]

    def test_forced_offset_zero_three_bins(self):
        # grid {0,.2,.4,.6,.8} against CDF breaks {0.46, 0.80, 1.0}
        counts = at_offset(_systematic_counts, cdf_of([0.46, 0.34, 0.20]), 5, 0.0)
        assert list(counts) == [3, 1, 1]

    def test_single_particle(self):
        assert list(systematic_resample(pset([1.0]), 6, RngStream(3)).sizes) == [6]

    def test_consumes_one_uniform(self):
        rng = RngStream(1)
        systematic_resample(pset([0.3, 0.7]), 10, rng)
        assert rng.draws == 1

    def test_largest_offset_keeps_m_counts(self):
        # 1 - 2**-53 is the largest uniform RngStream emits; there the last
        # grid point (u + n - 1)/n rounds to 1.0, past every CDF entry
        counts = at_offset(_systematic_counts, cdf_of([0.46, 0.34, 0.20]), 5,
                           1 - 2**-53)
        assert len(counts) == 3
        assert counts.sum() == 5

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [0.1] * 10 + [0.0, 0.0]])
    def test_largest_offset_skips_trailing_zero_weights(self, weights):
        # n - u rounds down to n - 1 here, and the second vector's running
        # sums end an ulp short of 1
        w = WeightVector(weights)
        for kernel in (_systematic_counts, _rsr_counts):
            counts = at_offset(kernel, cdf_of(w), 2, 1 - 2**-53)
            assert counts.sum() == 2
            assert np.all(counts[w.weights == 0.0] == 0), kernel.__name__


class TestResidual:
    def test_deterministic_when_no_residual_mass(self):
        for seed in (0, 1, 2):
            counts = residual_resample(pset([0.2, 0.3, 0.5]), 10, RngStream(seed))
            assert list(counts.sizes) == [2, 3, 5]

    def test_floors_plus_one_draw(self):
        rng = RngStream(8)
        counts = residual_resample(pset([0.46, 0.34, 0.20]), 5, rng)
        assert np.all(counts.sizes >= [2, 1, 1])
        assert counts.sizes.sum() == 5
        assert rng.draws == 1  # n - L = 5 - 4

    def test_single_particle(self):
        rng = RngStream(0)
        assert list(residual_resample(pset([1.0]), 3, rng).sizes) == [3]
        assert rng.draws == 0

    def test_floors_past_float_precision_rejected(self):
        # n is below 2**53, but n*w rounds up: the floors already exceed n
        w = pset([0.18092580658734178, 0.8190741934126583])
        with pytest.raises(ValidationError, match="float precision"):
            residual_resample(w, 9007199254447305, RngStream(0))


class TestRsr:
    def test_is_the_systematic_entry_point(self):
        assert rsr_resample is systematic_resample
        assert RESAMPLERS["rsr"] is RESAMPLERS["systematic"]

    def test_single_particle(self):
        assert list(rsr_resample(pset([1.0]), 5, RngStream(2)).sizes) == [5]

    def test_forced_offset_quarter(self):
        assert list(at_offset(_rsr_counts, cdf_of([0.5, 0.5]), 2, 0.25)) == [1, 1]

    def test_matches_systematic_at_same_offset(self):
        w = WeightVector([0.46, 0.34, 0.20])
        assert list(at_offset(_rsr_counts, cdf_of(w), 5, 0.0)) == list(
            at_offset(_systematic_counts, cdf_of(w), 5, 0.0)
        )

    def test_consumes_one_uniform(self):
        rng = RngStream(1)
        rsr_resample(pset([0.3, 0.7]), 10, rng)
        assert rng.draws == 1


class TestSamplingVariance:
    def test_zero_for_exact_counts(self):
        counts = msv_resample(pset([0.2, 0.3, 0.5]), 10)
        assert sampling_variance(counts, [0.2, 0.3, 0.5]) == pytest.approx(0.0)

    def test_value(self):
        assert sampling_variance([2, 2, 1], [0.46, 0.34, 0.20]) == pytest.approx(0.06)
        assert sampling_variance([0, 2], [0.5, 0.5]) == pytest.approx(1.0)

    def test_rows_match_one_row_each(self):
        g = np.random.default_rng(8)
        wvs = [WeightVector(g.dirichlet(np.full(37, 0.3))) for _ in range(50)]
        rng = RngStream(4)
        counts = np.array([multinomial_resample(w, 37, rng).sizes for w in wvs])
        rows = sampling_variance(counts, np.array([w.weights for w in wvs]))
        assert rows.shape == (50,)
        assert rows.tolist() == [sampling_variance(c, w) for c, w in zip(counts, wvs)]

    def test_rows_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            sampling_variance(np.ones((2, 3), dtype=np.int64), np.full((3, 3), 1 / 3))


def test_counts_to_indices():
    counts = msv_resample(pset([0.46, 0.34, 0.20]), 5)
    assert list(counts_to_indices(counts)) == [0, 0, 1, 1, 2]


@pytest.mark.parametrize("sizes", [[1, 2], np.array([1, 2]), Allocation([1, 2])],
                         ids=["list", "array", "Allocation"])
def test_counts_to_indices_takes_what_sampling_variance_takes(sizes):
    # caller sizes raised AttributeError: no attribute 'sizes'
    assert counts_to_indices(sizes).tolist() == [0, 1, 1]
    assert sampling_variance(sizes, [0.5, 0.5]) == pytest.approx(0.25)


def test_counts_to_indices_takes_one_count_vector():
    # sampling_variance takes (R, M) count rows; counts_to_indices does not
    with pytest.raises(ValidationError, match="1-d sequence of integers"):
        counts_to_indices(np.array([[1, 2], [3, 0]]))


def test_counts_to_indices_rejects_negative_sizes():
    with pytest.raises(ValidationError, match="negative size -1 at index 1"):
        counts_to_indices([1, -1])


def test_all_schemes_sum_to_n_and_reproduce():
    rng_w = np.random.default_rng(21)
    for trial in range(300):
        m = int(rng_w.integers(1, 40))
        n = int(rng_w.integers(1, 80))
        raw = rng_w.random(m) ** 2 + 1e-12
        p = pset(raw / raw.sum())
        for name, fn in RESAMPLERS.items():
            c1 = fn(p, n, RngStream(trial))
            c2 = fn(p, n, RngStream(trial))
            assert c1.sizes.sum() == n, name
            assert np.array_equal(c1.sizes, c2.sizes), name


def test_library_built_counts_are_frozen_int64():
    g = np.random.default_rng(25)
    for trial in range(200):
        m = int(g.integers(1, 7))
        n = int(g.integers(1, 13))
        raw = g.random(m) ** 2 + 1e-12
        w = WeightVector(raw / raw.sum())
        built = {name: fn(w, n, RngStream(trial)) for name, fn in RESAMPLERS.items()}
        built["lmse_partition"] = lmse_partition(w, n)
        built["brute_force_partition"] = brute_force_partition(w, n)[0]
        for name, a in built.items():
            assert type(a) is Allocation, name
            assert a.sizes.dtype == np.int64 and not a.sizes.flags.writeable, name
            assert a.sizes.shape == (m,) and a.sizes.sum() == a.total == n, name


_RAW_50 = np.random.default_rng(26).random(50) ** 2 + 1e-12


@pytest.mark.parametrize("name", RESAMPLERS)
@pytest.mark.parametrize("w, n", [([0.5, 0.5], 4), (_RAW_50 / _RAW_50.sum(), 173)],
                         ids=["half-half", "M=50"])
def test_scheme_output_goes_to_every_consumer(name, w, n):
    # mse(msv_resample(w, 4), w) used to raise "sizes must be integers" on
    # the scheme's own counts, while sampling_variance took them
    out = RESAMPLERS[name](pset(w), n, RngStream(9))
    assert type(out) is Allocation
    assert mse(out, w) == sampling_variance(out, w)
    assert mae(out, w) >= 0.0
    assert check_theory1_bound(out, w) in (True, False)
    assert check_local_optimality(out, w) in (True, False)
    assert counts_to_indices(out).tolist() == np.repeat(np.arange(len(w)), out.sizes).tolist()
    if name == "msv":
        assert check_theory1_bound(out, w) and check_local_optimality(out, w)


def test_floor_bracket_for_deterministic_schemes():
    rng_w = np.random.default_rng(22)
    for trial in range(300):
        m = int(rng_w.integers(2, 50))
        n = int(rng_w.integers(1, 100))
        raw = rng_w.random(m) + 1e-12
        p = pset(raw / raw.sum())
        floors = np.floor(n * p.weights.weights)
        for name in ("systematic", "rsr", "msv"):
            c = RESAMPLERS[name](p, n, RngStream(trial))
            assert np.all(c.sizes >= floors), name
            assert np.all(c.sizes <= floors + 1), name
        c = residual_resample(p, n, RngStream(trial))
        assert np.all(c.sizes >= floors)


def test_msv_never_beaten():
    rng_w = np.random.default_rng(23)
    for trial in range(500):
        m = int(rng_w.integers(2, 60))
        n = int(rng_w.integers(1, 120))
        raw = rng_w.random(m) ** 3 + 1e-12
        p = pset(raw / raw.sum())
        best = sampling_variance(msv_resample(p, n), p.weights)
        for name in ("multinomial", "residual", "systematic", "rsr"):
            sv = sampling_variance(RESAMPLERS[name](p, n, RngStream(trial)), p.weights)
            assert best <= sv + 1e-12, name


def test_running_sums_above_one_still_give_valid_counts():
    # heavy-tailed weights whose stored running sums pass 1 before the end
    raw = np.random.default_rng(53).lognormal(0.0, 10.0, 50)
    w = WeightVector(raw / raw.sum())
    assert np.cumsum(w.weights)[:-1].max() > 1.0
    p = ParticleSet(np.arange(len(w), dtype=float), w)
    for n in (len(w), 7, 1000):
        results = {name: fn(p, n, RngStream(n)) for name, fn in RESAMPLERS.items()}
        at_zero = at_offset(_systematic_counts, cdf_of(w), n, 0.0)
        results["systematic at offset 0"] = Allocation(at_zero)
        for name, c in results.items():
            assert len(c) == len(w), name
            assert np.all(c.sizes >= 0), name
            assert c.sizes.sum() == n, name


def masked_cdf(running):
    """_cdf's earlier form: compare every entry, then set the masked ones."""
    running[running >= min(running[-1], 1.0)] = 1.0
    return running


def test_cdf_clamp_matches_masked_compare():
    heavy = np.random.default_rng(53).lognormal(0.0, 10.0, 50)  # as above
    g = np.random.default_rng(61)
    cases = {
        "passes 1 early": np.cumsum(WeightVector(heavy / heavy.sum()).weights),
        "ends ulps short of 1": np.cumsum(np.full(10, 0.1)),
        "runs of zeros": np.cumsum(np.repeat([0.0, 0.25, 0.0, 0.5, 0.0, 0.25, 0.0], 4)),
        "trailing zeros after 1": np.cumsum([0.5, 0.5, 0.0, 0.0]),
        "M = 1": np.array([1.0]),
        "M = 1, short of 1": np.array([1.0 - 2**-52]),
        "one entry": np.array([0.0]),
    }
    assert cases["passes 1 early"][:-1].max() > 1.0
    assert cases["ends ulps short of 1"][-1] < 1.0
    for m in (2, 7, 100, 10_000):
        for trial in range(5):
            raw = g.lognormal(0.0, 3.0, m) * (g.random(m) < 0.7)
            raw[0] += 1e-300  # a positive total
            cases[f"fuzz {m} #{trial}"] = np.cumsum(raw / raw.sum())
    for kind, running in cases.items():
        want = masked_cdf(running.copy())
        got = _cdf(running.copy())
        assert np.array_equal(got, want), kind
        assert got[-1] == 1.0 or running[-1] == 0.0, kind


# Reference kernels: the forms the schemes had before the sorted-draw,
# cumulative-count and selection kernels. Each takes the stored weights and
# consumes the stream exactly as its scheme does.

def ref_multinomial(w, n, rng):
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.next_uniforms(n), side="right")
    return np.bincount(idx, minlength=w.size)


def ref_residual(w, n, rng):
    floors = np.floor(n * w)
    res = w - floors / n
    counts = floors.astype(np.int64)
    remaining = n - int(counts.sum())
    if remaining > 0:
        cdf = np.cumsum(res)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, rng.next_uniforms(remaining), side="right")
        counts += np.bincount(idx, minlength=w.size)
    return counts


def ref_systematic(w, n, rng):
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    grid = (rng.next_uniform() + np.arange(n)) / n
    return np.bincount(np.searchsorted(cdf, grid, side="right"), minlength=w.size)


def ref_msv(w, n, rng):
    floors = np.floor(n * w)
    res = w - floors / n
    sizes = floors.astype(np.int64)
    surplus = n - int(sizes.sum())
    if surplus > 0:
        order = np.argsort(-res, kind="stable")
        sizes[order[:surplus]] += 1
    return sizes


REFERENCE = {
    "multinomial": ref_multinomial,
    "residual": ref_residual,
    "systematic": ref_systematic,
    "rsr": ref_systematic,  # RSR is systematic at the same offset
    "msv": ref_msv,
}


def test_kernels_match_reference():
    g = np.random.default_rng(24)
    for trial in range(2000):
        m = int(g.integers(1, 200))
        kind = trial % 4
        if kind == 0:
            raw = g.random(m)
        elif kind == 1:
            raw = g.lognormal(0.0, 3.0, m)
        elif kind == 2:  # a few distinct values: residual ties
            raw = g.integers(0, 4, m).astype(float)
            raw[g.integers(m)] += 1.0
        else:
            raw = np.ones(m)
        w = WeightVector(raw / raw.sum())
        n = int(g.choice([m, g.integers(1, 3 * m + 2), g.integers(1, 40)]))
        for name, fn in RESAMPLERS.items():
            rng, ref_rng = RngStream(trial), RngStream(trial)
            got = fn(w, n, rng).sizes
            want = REFERENCE[name](w.weights, n, ref_rng)
            assert np.array_equal(got, want), (name, trial)
            assert rng.draws == ref_rng.draws, (name, trial)


def test_kernels_match_reference_at_large_m():
    # M = n = 2e5: multinomial's and residual's keyed readouts span several blocks
    g = np.random.default_rng(26)
    m = 200_000
    for sigma in (0.1, 3.0):
        raw = g.lognormal(0.0, sigma, m)
        w = WeightVector(raw / raw.sum())
        for name, fn in RESAMPLERS.items():
            rng, ref_rng = RngStream(7), RngStream(7)
            got = fn(w, m, rng).sizes
            want = REFERENCE[name](w.weights, m, ref_rng)
            assert np.array_equal(got, want), (name, sigma)
            assert rng.draws == ref_rng.draws, (name, sigma)


@pytest.mark.parametrize("m", [100, 5000])
def test_one_weight_vector_serves_every_scheme(m):
    raw = np.random.default_rng(m).lognormal(0.0, 2.0, m)
    raw /= raw.sum()
    w = WeightVector(raw)
    weights = w.weights.copy()
    for name, fn in RESAMPLERS.items():
        rng, raw_rng = RngStream(3), RngStream(3)
        assert np.array_equal(fn(w, m, rng).sizes, fn(raw, m, raw_rng).sizes), name
        assert rng.draws == raw_rng.draws, name
    # every scheme only reads the weights
    assert np.array_equal(w.weights, weights)
    assert not w.weights.flags.writeable


def fuzz_rows(g, m, n):
    """(R, M) weight rows as WeightVector stores them: every row kind the
    per-row computations treat specially, plus random ones."""
    heavy = next(r for r in g.lognormal(0.0, 10.0, (1000, m))
                 if np.cumsum(r / r.sum())[:-1].max() > 1.0)  # passes 1 early
    tail = g.random(m)
    tail[m // 2:] = 0.0
    dyadic = np.zeros(m)  # n*w whole for every entry when n is a multiple of 4
    dyadic[[0, -1]] = 0.25
    dyadic[m // 2] += 0.5
    rows = [heavy, tail, np.ones(m), dyadic, *g.lognormal(0.0, 2.0, (4, m)),
            *(g.integers(0, 3, (2, m)) + (np.arange(m) == 1))]
    return np.array([r / r.sum() for r in rows])


def parent_residual_cdf(res):
    """The residual CDF as residual_resample built it for one row."""
    cum = np.cumsum(np.maximum(res, 0.0))
    return cum / cum[-1]


@pytest.mark.parametrize("m, n", [(10, 10), (10, 4), (7, 36), (100, 100), (1000, 2500)])
def test_weight_rows_equal_one_row_each(m, n):
    g = np.random.default_rng(m * n)
    stored = fuzz_rows(g, m, n)
    stored.flags.writeable = False
    rows = _Rows(stored, n)
    same = lambda a, b: a.dtype == b.dtype and a.tobytes() == b.tobytes()  # noqa: E731
    assert rows.weights is stored

    def parts(rows):  # the split, its residuals, and the residual CDF of a second split
        floors, surpluses, floored = rows.split()
        return (floors, surpluses, rows.residuals(floored),
                rows.residual_cdf(rows.residuals(rows.split()[2]), surpluses))

    floored = rows.floored()
    all_floors, surpluses, all_res, residual_cdf = parts(rows)
    assert rows.floors[0] is all_floors and rows.floors[1] == surpluses  # kept for the next
    kept, _, again = rows.split()
    assert kept is all_floors and same(again, floored)  # a second split floors again
    for a in (rows.cdf, all_floors):  # shared by every scheme
        assert not a.flags.writeable
    assert surpluses == tuple(s for r in range(len(stored))
                              for s in _Rows(stored[r:r + 1], n).split()[1])
    for r, (w, wv) in enumerate(zip(stored, rows.populations())):
        assert wv.weights is not w and same(wv.weights, w)
        assert same(rows.cdf[r], _cdf(np.cumsum(w)))  # the one-row search
        one = _Rows(stored[r:r + 1], n)  # the row alone, and the arithmetic of one row
        alone = parts(one)
        for part, got in zip((rows.cdf, all_floors, all_res, residual_cdf),
                             (one.cdf,) + alone[:1] + alone[2:]):
            assert same(part[r], got[0])
        floors = np.floor(n * w)
        res = w - floors / n
        assert same(all_floors[r], floors.astype(np.int64)) and same(all_res[r], res)
        assert surpluses[r] == n - floors.sum()
        if surpluses[r]:
            assert same(residual_cdf[r], parent_residual_cdf(res))
    cums = np.cumsum(stored, axis=1)
    if m == 10:  # ten equal weights sum to an ulp short of 1
        assert cums[2, -1] < 1.0
    assert cums[0, :-1].max() > 1.0
    assert 0 in surpluses or n % 4, surpluses  # the dyadic row has no surplus
    assert max(surpluses) > 0


def test_weight_rows_reject_floors_past_float_precision():
    w = np.array([[0.5, 0.5], [0.18092580658734178, 0.8190741934126583]])
    with pytest.raises(ValidationError, match="float precision"):
        _Rows(w, 9007199254447305).split()


@pytest.mark.parametrize("m, n", [(10, 10), (7, 36), (100, 100)])
def test_schemes_on_weight_rows_match_reference(m, n):
    # each row of a rows vector holds its CDF and computes its split at any
    # n, as a caller's WeightVector of the same weights does
    stored = fuzz_rows(np.random.default_rng(m + n), m, n)
    stored.flags.writeable = False
    rows = _Rows(stored, n)
    for r, (w, wv) in enumerate(zip(stored, rows.populations())):
        for k in (n, n + 3, max(1, n // 3)):
            for name, fn in RESAMPLERS.items():
                for held in (wv, WeightVector(w)):
                    rng, ref_rng = RngStream(r), RngStream(r)
                    got = fn(held, k, rng).sizes
                    assert np.array_equal(got, REFERENCE[name](w, k, ref_rng)), (name, r, k)
                    assert rng.draws == ref_rng.draws, (name, r, k)


def row_kernel_cases():
    """(R, M) stored weight rows and their n: fuzz_rows at several sizes, which
    hold rows with no surplus (the uniform and dyadic rows at these n), a
    zero-weight tail, running sums that pass 1 early and tied residuals;
    each of them alone (R = 1); and 520 rows, past one 512-row key sort."""
    for m, n in [(10, 10), (10, 4), (7, 36), (100, 100), (3000, 3000)]:
        stored = fuzz_rows(np.random.default_rng(m + n), m, n)
        yield f"M={m} n={n}", stored, n
        for r in (0, 1, 3, 8):
            yield f"M={m} n={n} row {r}", stored[r:r + 1], n
    many = np.tile(fuzz_rows(np.random.default_rng(5), 5, 8), (52, 1))
    assert len(many) == 520
    yield "520 rows", many, 8


@pytest.mark.parametrize("name", RESAMPLERS)
def test_row_kernels_equal_one_call_per_row(name):
    kernel = _ROW_KERNELS[RESAMPLERS[name]]
    for case, stored, n in row_kernel_cases():
        stored.flags.writeable = False
        rows = _Rows(stored, n)
        assert min(rows.split()[1]) == 0 or "row" in case or "520" in case
        rngs = [RngStream(7).spawn(r) for r in range(len(stored))]
        got = kernel(rows, rngs)
        assert got.shape == stored.shape and got.dtype == np.int64, case
        for r, (w, wv) in enumerate(zip(stored, rows.populations())):
            rng, ref_rng = RngStream(7).spawn(r), RngStream(7).spawn(r)
            assert np.array_equal(got[r], RESAMPLERS[name](wv, n, rng).sizes), (case, r)
            assert np.array_equal(got[r], REFERENCE[name](w, n, ref_rng)), (case, r)
            assert rngs[r].draws == rng.draws == ref_rng.draws, (case, r)


def test_systematic_rows_with_one_offset_near_one():
    # u within an ulp of 1 sets the count of every bin whose CDF is 1 to n on
    # that row alone; the rows around it keep their own offsets
    stored = fuzz_rows(np.random.default_rng(4), 10, 10)
    cdf = _Rows(stored, 10).cdf
    for n in (10, 3, 37):
        for top in range(len(cdf)):
            u = np.random.default_rng(top).random(len(cdf))
            u[top] = 1 - 2**-53
            got = _systematic_counts(cdf, n, u)
            for r, (c, ur) in enumerate(zip(cdf, u)):
                cum = np.ceil(c * n - ur)
                if np.ceil(n - ur) < n:
                    cum[c == 1.0] = n
                want = np.diff(cum, prepend=0.0).astype(np.int64)
                assert np.array_equal(got[r], want), (n, top, r)
                assert np.array_equal(got[r], at_offset(_systematic_counts, c, n, ur))
            assert np.all(got[top][stored[top] == 0.0] == 0)  # the zero-weight tail


@pytest.mark.parametrize("m", [_BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("u", [0.0, 0.3, 1 - 2**-53])
def test_blocked_systematic_counts_match_one_pass(m, u):
    # zero weights from inside the second-to-last block on: with u near 1 the
    # counts of the bins whose CDF is 1 must be 0 in every block
    raw = np.random.default_rng(m).lognormal(0.0, 1.0, m)
    raw[m - _BLOCK // 2 - 7:] = 0.0
    cdf = cdf_of(raw / raw.sum())
    for n in (m, 3 * m + 1, 17):
        cum = np.ceil(cdf * n - u)
        if np.ceil(n - u) < n:
            cum[cdf == 1.0] = n
        want = np.diff(cum, prepend=0.0).astype(np.int64)
        got = at_offset(_systematic_counts, cdf, n, u)
        assert np.array_equal(got, want), n
        assert got.sum() == n and np.all(got[raw == 0] == 0)


@pytest.mark.parametrize("held", [False, True], ids=["raw array", "caller WeightVector"])
def test_systematic_holds_the_counts_and_one_block(held):
    # M = n = 1e6: the CDF (built inside the call) and the counts, plus one
    # block of cumulative counts: 15.6 MiB, where a full cumulative-count
    # array made it 22.95 MiB
    m = 10**6
    raw = np.random.default_rng(7).lognormal(0.0, 1.0, m)
    raw /= raw.sum()
    p = WeightVector(raw) if held else raw
    tracemalloc.start()
    try:
        counts = systematic_resample(p, m, RngStream(5)).sizes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == m
    assert peak < 2 * 8 * m + 16 * _BLOCK + 2**20


# tracemalloc peaks, in M-arrays of 8 bytes, of one call at M = n = 1e6 on
# near-uniform raw weights: the peaks measured before the split was built
# lazily (multinomial 32.43, residual 35.94, systematic and rsr 15.57, msv
# 30.52 MiB), plus 1 MiB
PEAK_ARRAYS = {"multinomial": 4.38, "residual": 4.84, "systematic": 2.17, "rsr": 2.17,
               "msv": 4.13}


@pytest.mark.parametrize("name", RESAMPLERS)
def test_one_population_peaks_within_its_bound(name):
    # a part of the split that a scheme has read and no longer needs must not
    # stay alive beside the next: each part is an M-array
    m = 10**6
    raw = np.random.default_rng(7).lognormal(0.0, 0.1, m)
    raw /= raw.sum()
    tracemalloc.start()
    try:
        counts = RESAMPLERS[name](raw, m, RngStream(5)).sizes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == m
    assert peak < PEAK_ARRAYS[name] * 8 * m, peak / (8 * m)


class FixedStream:
    """Hands out given uniforms, which must lie on RngStream's 2**-53 grid."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def next_uniforms(self, k):
        assert k == self.u.size
        return self.u.copy()


def search_cum(cdf, u):
    """The search readout: sorted draws, one searchsorted of the CDF."""
    return np.searchsorted(np.sort(u), cdf, side="left")


def fuzz_cdfs(g, m):
    """CDFs of several kinds, as multinomial_resample builds them."""
    zeros = np.zeros(m // 5)
    kinds = {
        "lognormal": g.lognormal(0.0, 2.0, m),
        # few distinct values: runs of equal CDF entries on a coarse grid
        "quantised": g.integers(0, 3, m).astype(float) + (np.arange(m) == m // 2),
        "leading and trailing zeros": np.concatenate([zeros, g.random(m), zeros]),
    }
    for kind, raw in kinds.items():
        yield kind, _cdf(np.cumsum(raw / raw.sum()))
    # entries one and two ulps short of 1 before the final 1, where the
    # largest uniform 1 - 2**-53 must pass the first and land in the last bin
    short = np.sort(g.random(m))
    short[-3:] = [1 - 2**-52, 1 - 2**-53, 1.0]
    yield "ulps short of one", short
    # an ulp above coarse grid values below 1/2: between two uniforms, where
    # the draw at the grid value is below the CDF value and must count
    above = np.nextafter(np.sort(g.integers(0, 8, m)) / 16.0, 1.0)
    above[-1] = 1.0
    yield "an ulp above the draw grid", above


@pytest.mark.parametrize("m, k", [
    (3, 5), (100, 100), (4095, 4096), (5000, 100), (4096, 4096), (5000, 20_000),
    (20_000, 80_000), (20_000, 160_000), (65_536, 4096), (300_000, 4096), (300_000, 1000),
    # k = M/4 searches the CDF for each sorted draw, k = M/4 + 1 reads keys;
    # so does k = 1024 against 1025 where M/4 is less
    (4096, 1024), (4096, 1025), (300_000, 75_000), (300_000, 75_001), (3000, 1024), (3000, 1025),
])
def test_readouts_agree_across_the_rule(m, k):
    # Both readouts of one row, the search at k <= M/4 or k <= 1024 and the
    # keyed sort above, against a search of the sorted draws, from a few CDF values
    # and draws to 300 000 and 160 000, balanced and lopsided.
    g = np.random.default_rng(m + k)
    for kind, cdf in fuzz_cdfs(g, m):
        assert cdf[-1] <= 1.0 and np.all(np.diff(cdf) >= 0), kind
        # draws from the stream, and draws on a coarse grid that tie with CDF
        # values, including 0 and the largest uniform 1 - 2**-53
        coarse = g.integers(0, 17, k) / 16.0
        coarse[coarse == 1.0] = 1 - 2**-53
        for u in (RngStream(k).next_uniforms(k), coarse):
            keyed = _draw_counts([cdf.copy()[None]], np.array([k]), [FixedStream(u)])
            assert np.array_equal(keyed[0], np.diff(search_cum(cdf, u), prepend=0)), kind
            assert keyed.dtype == np.int64


@pytest.mark.parametrize("k", [1024, 1025], ids=["search", "keyed"])
@pytest.mark.parametrize("m", [10, 100, 3000])
def test_one_row_readouts_agree_at_the_small_k_bound(monkeypatch, m, k):
    # one row searches the CDF for k <= 1024 draws, where M/4 is less, and reads
    # keys above; both readouts give the counts and draws of the other, which
    # two rows (always read by keys) and the search oracle give
    searches = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: searches.append(1) or bincount(*a, **kw))
    g = np.random.default_rng(m + k)
    raw = g.lognormal(0.0, 1.0, m)
    w = WeightVector(raw / raw.sum())
    one, rng = multinomial_resample(w, k, RngStream(3)).sizes, RngStream(3)
    assert len(searches) == (k <= 1024)
    two = _multinomial_rows(_Rows(np.stack([w.weights] * 2), k), (rng, RngStream(4)))
    assert len(searches) == (k <= 1024)  # two rows read keys
    assert np.array_equal(one, two[0]) and rng.draws == k
    u = RngStream(3).next_uniforms(k)
    assert np.array_equal(one, np.diff(search_cum(cdf_of(w.weights), u), prepend=0))


@pytest.mark.parametrize("below", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK])
def test_keyed_readout_across_block_edges(below):
    # CDF [1/2, 1]: the key of 1/2 sorts after the draws below it, so it
    # falls last in a block, first in the next, or past one or more blocks
    # that hold no CDF key at all
    cdf = np.array([0.5, 1.0])
    for k in (below, below + 2, 4 * _BLOCK):
        u = np.where(np.arange(k) < below, 0.25, 0.75)  # on the uniforms' 2**-53 grid
        keyed = _draw_counts([cdf[None].copy()], np.array([k]), [FixedStream(u)])[0]
        assert np.array_equal(keyed, np.diff(search_cum(cdf, u), prepend=0)), k
        assert keyed.tolist() == [min(below, k), k - min(below, k)]


def test_keyed_readout_of_a_block_with_no_cdf_key():
    # one bin takes more than 2**15 draws, with many bins around it
    m = 3000
    raw = np.full(m, 1.0)
    raw[m // 2] = 4 * m
    cdf = _cdf(np.cumsum(raw / raw.sum()))
    u = RngStream(9).next_uniforms(5 * _BLOCK)
    keyed = _draw_counts([cdf[None].copy()], np.array([u.size]), [FixedStream(u)])[0]
    assert keyed[m // 2] > _BLOCK
    assert np.array_equal(keyed, np.diff(search_cum(cdf, u), prepend=0))


@pytest.mark.parametrize("r", [5, 513], ids=["one group", "two groups"])
def test_keyed_readout_of_rows_with_mixed_draws(r):
    # rows that draw nothing between rows that draw up to two blocks, 5 rows
    # and 513, which once were more than one sort group of 512 rows
    g = np.random.default_rng(r)
    m = 40
    cdf = np.array([_cdf(np.cumsum(w / w.sum())) for w in g.lognormal(0.0, 2.0, (r, m))])
    ks = g.integers(0, 3, r) * g.integers(0, 2 * _BLOCK // r + 50, r)
    ks[[0, r // 2, -1]] = [0, 0, 2 * _BLOCK + 3]
    seeds = g.integers(0, 2**62, r)
    keyed = _draw_counts([cdf.copy()], ks, [RngStream(int(s)) for s in seeds])
    for row, c, k, s in zip(keyed, cdf, ks, seeds):
        u = RngStream(int(s)).next_uniforms(int(k))
        assert np.array_equal(row, np.diff(search_cum(c, u), prepend=0)), k
    assert keyed.dtype == np.int64 and keyed.shape == (r, m)


RAGGED_DRAWS = {  # each row's draws, for R rows
    # short rows, whose pads precede the next row's bin 0, which takes draws
    "padded row before bin-0 draws": lambda r: 3 + 9 * (np.arange(r) % 2),
    "rows drawing nothing": lambda r: 7 * (np.arange(r) % 3 == 1),
    "one row draws every unit": lambda r: 40 * (np.arange(r) == r // 2),
}


@pytest.mark.parametrize("r", [1, 2, 513])
@pytest.mark.parametrize("case", RAGGED_DRAWS)
def test_ragged_rows_read_out_as_each_row_alone(case, r):
    # rows of fewer draws than the longest are padded with keys that sort
    # after their row's; read as one sequence, they fall in the next row's
    # bin 0, which half the weight makes the likeliest bin
    g = np.random.default_rng(r)
    raw = g.lognormal(0.0, 1.0, (r, 6))
    raw[:, 0] = raw[:, 1:].sum(axis=1)
    cdf = np.array([_cdf(np.cumsum(w / w.sum())) for w in raw])
    ks = RAGGED_DRAWS[case](r).astype(np.int64)
    seeds = g.integers(0, 2**62, r)
    keyed = _draw_counts([cdf.copy()], ks, [RngStream(int(s)) for s in seeds])
    assert keyed.dtype == np.int64 and keyed.shape == (r, 6)
    for row, c, k, s in zip(keyed, cdf, ks, seeds):
        u = RngStream(int(s)).next_uniforms(int(k))
        assert np.array_equal(row, np.diff(search_cum(c, u), prepend=0)), k


# the most M-sized arrays one call on a raw weight array may hold at once, at
# M = n = 2**18, in units of one float64 array of M, block-sized buffers
# included: multinomial's keys of M CDF values and n draws, beside them the
# CDF, the draws or the counts; residual's floors and keys of M residual CDF
# values and its draws, beside them the residual CDF or the counts; msv's
# floors, residuals and its selection's copy; systematic's CDF and counts
CALL_ARRAYS = {"multinomial": 3.25, "residual": 3.75, "systematic": 2.1, "rsr": 2.1,
               "msv": 3.1}


@pytest.mark.parametrize("sigma", [0.1, 3.0], ids=["near-uniform", "heavy-tailed"])
@pytest.mark.parametrize("name", RESAMPLERS)
def test_one_call_frees_each_array_once_read(name, sigma):
    m = 2**18
    raw = np.random.default_rng(7).lognormal(0.0, sigma, m)
    raw /= raw.sum()
    RESAMPLERS[name](raw, m, RngStream(5))
    tracemalloc.start()
    try:
        counts = RESAMPLERS[name](raw, m, RngStream(5)).sizes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == m
    assert peak <= CALL_ARRAYS[name] * 8 * m, peak / (8 * m)


# M equal weights and a trailing zero, n draws: (5000, 5000) takes the keyed
# readout (it once took the merged one), (40, 10) the search, as n <= (M + 1)/4
@pytest.mark.parametrize("m, n", [(5000, 5000), (40, 10)], ids=["keyed", "search"])
def test_largest_uniform_skips_trailing_zero_weight_on_each_readout(m, n):
    # as TestMultinomial's stub
    class TopStream(RngStream):
        def next_uniforms(self, k):
            return np.full(k, 1 - 2**-53)

    w = WeightVector([1 / m] * m + [0.0])
    counts = multinomial_resample(w, n, TopStream(0)).sizes
    cdf = _cdf(np.cumsum(w.weights))
    want = np.diff(search_cum(cdf, np.full(n, 1 - 2**-53)), prepend=0)
    assert np.array_equal(counts, want)
    assert counts.sum() == n and counts[-1] == 0


def test_keys_with_bit_60_sort_as_normal_doubles():
    # the largest CDF key 2*2**53, the largest draw key 2*(2**53 - 1) + 1 and
    # the pad 2**54 + 1, each with bit 60 set, are finite normal positive
    # doubles, not subnormals that flush-to-zero would read as 0
    bit = np.uint64(1 << 60)
    top = np.array([0, 2 * 2**53, 2 * (2**53 - 1) + 1, 2**54 + 1], dtype=np.uint64) | bit
    as_float = top.view(np.float64)
    assert np.all(np.isfinite(as_float)) and np.all(as_float >= np.finfo(np.float64).tiny)
    # adversarial rows: a CDF key equal to a draw's value, repeated CDF keys,
    # pads, and keys an ulp apart, sorted as doubles and as uint64
    g = np.random.default_rng(60)
    j = g.integers(0, 2**53, (50, 40), dtype=np.uint64)
    keys = np.concatenate([2 * j, 2 * j + 1, 2 * j[:, :5], np.full((50, 3), 2**54 + 1, np.uint64),
                           2 * (j[:, :4] + 1) + 1, np.full((50, 2), 2 * 2**53, np.uint64)], axis=1)
    keys |= bit
    want = np.sort(keys, axis=1)
    keys.view(np.float64).sort(axis=1)
    assert np.array_equal(keys, want)
