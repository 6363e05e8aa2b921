import numpy as np
import pytest

from finset.partition import (
    Allocation,
    ResidualVector,
    ValidationError,
    WeightVector,
    _cdf,
    brute_force_partition,
    lmse_partition,
)
from finset.resampling import (
    RESAMPLERS,
    ParticleSet,
    ResampleCounts,
    counts_to_indices,
    msv_resample,
    multinomial_resample,
    residual_resample,
    rsr_resample,
    sampling_variance,
    systematic_resample,
    _draw_cum,
    _merged_readout,
    _rsr_counts,
    _systematic_counts,
)
from finset import resampling
from finset.rng import RngStream


def pset(weights):
    w = WeightVector(weights)
    return ParticleSet(np.arange(len(w), dtype=float), w)


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
    lambda: ResampleCounts(Allocation([1, 2])),
], ids=["WeightVector", "Allocation", "ResidualVector", "ParticleSet", "ResampleCounts"])
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
        class TopStream:
            def next_uniforms(self, k):
                return np.full(k, 1 - 2**-53)

        w = WeightVector([0.1] * 10 + [0.0])
        counts = multinomial_resample(w, 3, TopStream()).sizes
        assert list(counts) == [0] * 9 + [3, 0]


class TestSystematic:
    def test_forced_offset_zero_even_split(self):
        assert list(_systematic_counts(WeightVector([0.5, 0.5]).cdf, 2, 0.0).sizes) == [1, 1]

    def test_forced_offset_zero_three_bins(self):
        # grid {0,.2,.4,.6,.8} against CDF breaks {0.46, 0.80, 1.0}
        counts = _systematic_counts(WeightVector([0.46, 0.34, 0.20]).cdf, 5, 0.0)
        assert list(counts.sizes) == [3, 1, 1]

    def test_single_particle(self):
        assert list(systematic_resample(pset([1.0]), 6, RngStream(3)).sizes) == [6]

    def test_consumes_one_uniform(self):
        rng = RngStream(1)
        systematic_resample(pset([0.3, 0.7]), 10, rng)
        assert rng.draws == 1

    def test_largest_offset_keeps_m_counts(self):
        # 1 - 2**-53 is the largest uniform RngStream emits; there the last
        # grid point (u + n - 1)/n rounds to 1.0, past every CDF entry
        counts = _systematic_counts(WeightVector([0.46, 0.34, 0.20]).cdf, 5, 1 - 2**-53)
        assert len(counts) == 3
        assert counts.sizes.sum() == 5

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [0.1] * 10 + [0.0, 0.0]])
    def test_largest_offset_skips_trailing_zero_weights(self, weights):
        # n - u rounds down to n - 1 here, and the second vector's running
        # sums end an ulp short of 1
        w = WeightVector(weights)
        for kernel in (_systematic_counts, _rsr_counts):
            counts = kernel(w.cdf, 2, 1 - 2**-53).sizes
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
        assert list(_rsr_counts(WeightVector([0.5, 0.5]).cdf, 2, 0.25).sizes) == [1, 1]

    def test_matches_systematic_at_same_offset(self):
        w = WeightVector([0.46, 0.34, 0.20])
        assert list(_rsr_counts(w.cdf, 5, 0.0).sizes) == list(
            _systematic_counts(w.cdf, 5, 0.0).sizes
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
        built = {name: fn(w, n, RngStream(trial)).counts for name, fn in RESAMPLERS.items()}
        built["lmse_partition"] = lmse_partition(w, n)
        built["brute_force_partition"] = brute_force_partition(w, n)[0]
        for name, a in built.items():
            assert type(a) is Allocation, name
            assert a.sizes.dtype == np.int64 and not a.sizes.flags.writeable, name
            assert a.sizes.shape == (m,) and a.sizes.sum() == a.total == n, name


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
        results["systematic at offset 0"] = _systematic_counts(w.cdf, n, 0.0)
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
    # M = n = 2e5: multinomial's and residual's draws take the merged readout
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
        assert _merged_readout(m, m)
        assert _merged_readout(m, m - int(np.floor(m * w.weights).sum()))


@pytest.mark.parametrize("m", [100, 5000])  # 5000 takes the merged readout
def test_one_weight_vector_serves_every_scheme(m):
    raw = np.random.default_rng(m).lognormal(0.0, 2.0, m)
    raw /= raw.sum()
    w = WeightVector(raw)
    weights, cdf = w.weights.copy(), w.cdf.copy()
    for name, fn in RESAMPLERS.items():
        rng, raw_rng = RngStream(3), RngStream(3)
        assert np.array_equal(fn(w, m, rng).sizes, fn(raw, m, raw_rng).sizes), name
        assert rng.draws == raw_rng.draws, name
    assert _merged_readout(m, m) == (m == 5000)
    # the CDF is built once, then only read, by every scheme
    assert w.cdf is w.cdf
    assert np.array_equal(w.weights, weights) and np.array_equal(w.cdf, cdf)
    assert not w.weights.flags.writeable and not w.cdf.flags.writeable
    assert np.array_equal(w.cdf, _cdf(np.cumsum(weights)))


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


def readouts(cdf, u, monkeypatch):
    """_draw_cum's result down each path, for the same CDF and draws."""
    out = {}
    for merged in (False, True):
        monkeypatch.setattr(resampling, "_merged_readout", lambda m, k, v=merged: v)
        out[merged] = _draw_cum(cdf.copy(), FixedStream(u), u.size)
    return out[False], out[True]


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
])
def test_readouts_agree_across_the_rule(m, k, monkeypatch):
    g = np.random.default_rng(m + k)
    for kind, cdf in fuzz_cdfs(g, m):
        assert cdf[-1] <= 1.0 and np.all(np.diff(cdf) >= 0), kind
        # draws from the stream, and draws on a coarse grid that tie with CDF
        # values, including 0 and the largest uniform 1 - 2**-53
        coarse = g.integers(0, 17, k) / 16.0
        coarse[coarse == 1.0] = 1 - 2**-53
        for u in (RngStream(k).next_uniforms(k), coarse):
            search, merged = readouts(cdf, u, monkeypatch)
            want = search_cum(cdf, u)
            assert np.array_equal(search, want), kind
            assert np.array_equal(merged, want), kind
            assert merged.dtype == np.int64


def test_rule_covers_only_measured_sizes():
    assert not _merged_readout(100, 100)
    assert not _merged_readout(4095, 10**6)
    assert not _merged_readout(10**6, 4095)
    assert not _merged_readout(10_000, 40_001)
    assert not _merged_readout(16 * 5000 + 1, 5000)
    assert _merged_readout(4096, 4096)
    assert _merged_readout(10_000, 40_000)
    assert _merged_readout(16 * 5000, 5000)
    assert _merged_readout(10**6, 10**6)


def test_largest_uniform_skips_trailing_zero_weight_on_merged_readout():
    # as TestMultinomial's stub, at a size that takes the merged readout
    class TopStream:
        def next_uniforms(self, k):
            return np.full(k, 1 - 2**-53)

    w = WeightVector([1 / 5000] * 5000 + [0.0])
    assert _merged_readout(len(w), 5000)
    counts = multinomial_resample(w, 5000, TopStream()).sizes
    cdf = _cdf(np.cumsum(w.weights))
    want = np.diff(search_cum(cdf, np.full(5000, 1 - 2**-53)), prepend=0)
    assert np.array_equal(counts, want)
    assert counts.sum() == 5000 and counts[-1] == 0
