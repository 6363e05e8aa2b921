import functools
import hashlib
import math
import os
import sys
import tracemalloc
import types

import numpy as np
import pytest

from finset.model import (
    METHODS,
    BenchmarkConfig,
    ModelParams,
    ParticleCollapseError,
    aggregate_mean_sv,
    likelihood,
    measurement,
    run_benchmark,
    simulate_truth,
    sir_step,
    state_transition,
)
from finset import model, partition, resampling
from finset import rng as rng_module
from finset.cli import EXIT_VALIDATION, main
from finset.partition import Allocation, ValidationError, WeightVector, lmse_partition, residuals
from finset.resampling import RESAMPLERS, ParticleSet
from finset.rng import RngStream

DEFAULTS = ModelParams()


class TestModelEquations:
    def test_transition_from_origin(self):
        assert state_transition(0.0, 1, 0.0) == pytest.approx(
            1 + math.sin(0.04 * math.pi)
        )
        assert state_transition(0.0, 1, 0.0) == pytest.approx(1.12533, abs=1e-5)

    def test_transition_adds_scaled_previous_state(self):
        assert state_transition(2.0, 1, 0.0) == pytest.approx(2.12533, abs=1e-5)

    def test_transition_zero_frequency(self):
        assert state_transition(0.0, 50, 0.0, ModelParams(omega=0.0)) == 1.0

    def test_measurement_quadratic_regime(self):
        assert measurement(2.0, 10, 0.0) == pytest.approx(0.8)

    def test_measurement_linear_regime(self):
        assert measurement(2.0, 31, 0.0) == pytest.approx(-1.0)

    def test_measurement_switch_boundary_is_quadratic(self):
        assert measurement(0.0, 30, 0.0) == pytest.approx(0.0)

    def test_likelihood_peak(self):
        mean = measurement(2.0, 10, 0.0)
        assert likelihood(mean, 2.0, 10) == pytest.approx(1 / math.sqrt(2 * math.pi))
        assert likelihood(0.8, 2.0, 10) == pytest.approx(0.39894, abs=1e-5)

    def test_likelihood_one_std_away(self):
        mean = measurement(2.0, 10, 0.0)
        assert likelihood(mean + 1.0, 2.0, 10) == pytest.approx(0.24197, abs=1e-5)


def old_state_transition(x_prev, t, u, params=DEFAULTS):
    """state_transition as it was before it worked in place."""
    return 1.0 + np.sin(params.omega * np.pi * t) + params.phi1 * np.asarray(x_prev) + u


def old_measurement(x, t, v, params=DEFAULTS):
    """measurement as it was before it worked in place."""
    if t <= params.switch_time:
        return params.phi2 * np.asarray(x) ** 2 + v
    return params.phi3 * np.asarray(x) - 2.0 + v


def old_likelihood(y_obs, x, t, params=DEFAULTS):
    """likelihood as it was before its log worked in place."""
    std = params.obs_noise_std
    d = (y_obs - old_measurement(x, t, 0.0, params)) / std
    return np.exp(-0.5 * d * d - math.log(math.sqrt(2.0 * math.pi) * std))


def assert_bit_equal(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want, equal_nan=True)


eq = np.random.default_rng(26)
EQUATION_INPUTS = {  # (x, u or v, y_obs)
    "scalars": (2.0, 0.3, 0.8),
    "ints": (2, 1, 3),
    "list": ([0.0, 1.5, -2.0], 0.25, 1.0),
    "arrays": (eq.normal(0, 3, 5), eq.gamma(3, 2, 5), eq.normal(0, 3, 5)),
    "rows and a column": (eq.normal(0, 3, (3, 4)), eq.gamma(3, 2, (3, 4)),
                          eq.normal(0, 3, (3, 1))),
    "broadcast to rows": (eq.normal(0, 3, 4), eq.gamma(3, 2, (3, 4)), eq.normal(0, 3, (3, 4))),
    "one row broadcast to rows": (eq.normal(0, 3, (1, 4)), eq.gamma(3, 2, (3, 4)),
                                  eq.normal(0, 3, (3, 4))),
    "float32": (eq.normal(0, 3, 5).astype(np.float32), np.float32(0.5), np.float32(0.1)),
    "zeros, equal y and inf": (np.array([0.0, -0.0, 1.0, np.inf]), np.array([0.0, -0.0, 0.0, 1.0]),
                               np.array([0.0, 0.0, 0.2, 1.0])),
}


@pytest.mark.parametrize("t", [DEFAULTS.switch_time, DEFAULTS.switch_time + 1],
                         ids=["at the switch", "after it"])
@pytest.mark.parametrize("case", EQUATION_INPUTS)
def test_equations_equal_their_allocating_forms(case, t):
    # the in-place forms give the same bits, types and shapes, and leave every input as it was
    x, u, y = EQUATION_INPUTS[case]
    before = [np.array(a, copy=True) for a in (x, u, y)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_bit_equal(state_transition(x, t, u), old_state_transition(x, t, u))
        assert_bit_equal(measurement(x, t, u), old_measurement(x, t, u))
        assert_bit_equal(likelihood(y, x, t), old_likelihood(y, x, t))
    for a, b in zip((x, u, y), before):
        assert np.array_equal(a, b, equal_nan=True)


class TestParamValidation:
    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            ModelParams(gamma_shape=0)

    def test_bad_noise(self):
        with pytest.raises(ValidationError):
            ModelParams(obs_noise_std=0)

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            BenchmarkConfig(num_particles=0)
        with pytest.raises(ValidationError):
            BenchmarkConfig(methods=())
        with pytest.raises(ValidationError):
            BenchmarkConfig(methods=("nope",))

    @pytest.mark.parametrize("field, value", [
        ("gamma_shape", math.nan), ("obs_noise_std", math.nan), ("gamma_scale", math.inf),
        ("gamma_shape", -math.inf), ("omega", math.nan), ("phi1", math.inf),
    ])
    def test_non_finite_params_rejected(self, field, value):
        # these used to surface as a particle collapse at step 1
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ModelParams(**{field: value})

    @pytest.mark.parametrize("field", ["num_particles", "num_steps", "num_mc_runs"])
    def test_non_integer_sizes_rejected(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= 1, got 2.5"):
            BenchmarkConfig(**{field: 2.5})

    def test_numpy_integer_sizes_stored_as_int(self):
        config = BenchmarkConfig(num_particles=np.int64(7), num_steps=np.int32(3))
        assert type(config.num_particles) is int and config.num_particles == 7
        assert type(config.num_steps) is int and config.num_steps == 3

    @pytest.mark.parametrize("value", [math.nan, 2.5, 0, -3, "30"])
    def test_switch_time_must_be_an_integer_at_least_1(self, value):
        # nan used to pass and give the linear regime at every step
        with pytest.raises(ValidationError,
                           match=f"switch_time must be an integer >= 1, got {value!r}"):
            ModelParams(switch_time=value)

    def test_numpy_integer_switch_time_stored_as_int(self):
        params = ModelParams(switch_time=np.int64(30))
        assert type(params.switch_time) is int and params == DEFAULTS

    @pytest.mark.parametrize("seed", [2.5, 3.0, math.nan, None])
    def test_non_integer_seed_rejected(self, seed):
        # 2.5 used to be truncated to 2 by RngStream, giving seed 2's records
        with pytest.raises(ValidationError, match=f"seed must be an integer, got {seed!r}"):
            BenchmarkConfig(seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        small = dict(num_particles=10, num_steps=3, num_mc_runs=2)
        config = BenchmarkConfig(seed=np.int64(3), **small)
        assert type(config.seed) is int and config.seed == 3
        assert_same_result(run_benchmark(config),
                           run_benchmark(BenchmarkConfig(seed=3, **small)))
        assert BenchmarkConfig(seed=-1).seed == -1  # RngStream masks it, as before

    def test_bare_string_methods_rejected(self):
        # a str is a sequence too, of one-letter "methods"
        with pytest.raises(ValidationError, match="not a str"):
            BenchmarkConfig(methods="msv")

    def test_repeated_method_rejected(self):
        # a repeat would take over the first entry's stream
        with pytest.raises(ValidationError, match="'rsr' is listed twice"):
            BenchmarkConfig(methods=("rsr", "msv", "rsr"))

    def test_default_methods_are_the_resamplers(self):
        assert METHODS == tuple(RESAMPLERS)
        assert BenchmarkConfig().methods == METHODS


class TestSirStep:
    def test_single_particle(self):
        p = ParticleSet([1.5], WeightVector([1.0]))
        new, est, sv = sir_step(p, 0.3, 4, "msv", RngStream(2))
        assert est == pytest.approx(float(new.states[0]))
        assert sv == pytest.approx(0.0)
        assert len(new) == 1

    def test_flat_likelihood_keeps_uniform_weights(self):
        # phi2 = 0 makes the observation independent of the state, so the
        # update leaves uniform weights uniform and msv copies each particle once
        params = ModelParams(phi2=0.0)
        p = ParticleSet([0.0, 1.0, 2.0, 3.0], WeightVector([0.25] * 4))
        new, est, sv = sir_step(p, 0.1, 5, "msv", RngStream(3), params)
        assert sv == pytest.approx(0.0)
        assert len(np.unique(new.states)) == 4  # each particle copied exactly once

    def test_golden_step(self):
        # frozen from the pinned SplitMix64 stream
        p = ParticleSet([0.0, 1.0, -0.5], WeightVector([1 / 3] * 3))
        rng = RngStream(7)
        new, est, sv = sir_step(p, 1.5, 1, "systematic", rng)
        assert est == pytest.approx(3.6615583870039417, rel=1e-14)
        assert sv == pytest.approx(1.842306531256124e-05, rel=1e-12)
        assert list(new.states) == [3.658990534672466] * 3
        assert rng.draws == 10  # 3x3 gamma uniforms + 1 systematic offset

    def test_collapse_reported_with_step(self):
        # every likelihood underflows to 0 this far from a tight observation
        p = ParticleSet([0.0, 1.0], WeightVector([0.5, 0.5]))
        with pytest.raises(ParticleCollapseError, match="step 3"):
            sir_step(p, 1e3, 3, "msv", RngStream(0), ModelParams(obs_noise_std=1e-154))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(num_out=2.5), "n must be a positive integer"),  # it ran with 2 particles
        (dict(num_out=0), "n must be a positive integer"),
        # these three used to raise a misleading ParticleCollapseError
        (dict(y_obs=float("nan")), "y_obs must be finite, got nan"),
        (dict(y_obs=float("inf")), "y_obs must be finite, got inf"),
        (dict(y_obs=-float("inf")), "y_obs must be finite, got -inf"),
        (dict(t=float("nan")), "t must be an integer >= 1, got nan"),
        (dict(t=2.5), "t must be an integer >= 1, got 2.5"),
        (dict(t=0), "t must be an integer >= 1, got 0"),
    ], ids=["num_out 2.5", "num_out 0", "y_obs nan", "y_obs inf", "y_obs -inf", "t nan",
            "t 2.5", "t 0"])
    def test_bad_arguments_rejected_before_drawing(self, kwargs, message):
        p = ParticleSet([0.0, 1.0], WeightVector([0.5, 0.5]))
        args = dict(y_obs=0.5, t=3, method="systematic", rng=RngStream(0)) | kwargs
        with pytest.raises(ValidationError, match=message):
            sir_step(p, **args)
        assert args["rng"].draws == 0

    def test_numpy_integer_step_accepted(self):
        p = ParticleSet([0.0, 1.0], WeightVector([0.5, 0.5]))
        a = sir_step(p, 0.5, np.int64(3), "systematic", RngStream(0), num_out=np.int64(2))
        b = sir_step(p, 0.5, 3, "systematic", RngStream(0), num_out=2)
        assert list(a[0].states) == list(b[0].states) and a[1:] == b[1:]

    def test_unknown_method(self):
        p = ParticleSet([0.0], WeightVector([1.0]))
        with pytest.raises(ValidationError):
            sir_step(p, 0.0, 1, "stratified", RngStream(0))


class TestSimulateTruth:
    @pytest.mark.parametrize("num_steps", [2.5, -1, 0, None])
    def test_num_steps_must_be_a_positive_integer(self, num_steps):
        # 2.5 raised a bare TypeError, and -1 a bare NumPy ValueError
        rng = RngStream(4)
        with pytest.raises(ValidationError, match="num_steps must be an integer >= 1"):
            simulate_truth(num_steps, rng)
        assert rng.draws == 0

    def test_stream_listed_twice_rejected_before_drawing(self):
        g = RngStream(4)
        with pytest.raises(ValidationError, match="stream at index 1 repeats"):
            simulate_truth(3, [g, g])
        assert g.draws == 0

    def test_shapes_and_reproducibility(self):
        xs, ys = simulate_truth(25, RngStream(4))
        xs2, ys2 = simulate_truth(25, RngStream(4))
        assert xs.shape == ys.shape == (25,)
        assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)

    # 1000 steps at shape 9 and 3 rows take two blocks of 992 and 8 steps, the
    # switch in the second
    @pytest.mark.parametrize("steps, switch", [(1, 30), (70, 30), (1000, 995)])
    @pytest.mark.parametrize("shape", [3.0, 9.0, 2.5])
    @pytest.mark.parametrize("runs", [None, 3], ids=["one stream", "3 rows"])
    def test_one_draw_equals_the_per_step_loop(self, runs, shape, steps, switch):
        params = ModelParams(gamma_shape=shape, switch_time=switch)
        a, b = [RngStream(7) if runs is None else [RngStream(7).spawn(i) for i in range(runs)]
                for _ in range(2)]
        got, want = simulate_truth(steps, a, params), old_simulate_truth(steps, b, params)
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y)  # bit for bit
        draws = lambda rng: [rng.draws] if runs is None else [g.draws for g in rng]  # noqa: E731
        assert draws(a) == draws(b)

    def test_memory_stays_near_the_outputs(self):
        # its uniforms come in blocks of 2**15, not all at once: five values a
        # step and run would be 2.5 times the two outputs on their own
        steps = 10**5
        streams = [RngStream(3).spawn(i) for i in range(2)]
        tracemalloc.start()
        try:
            xs, ys = simulate_truth(steps, streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = xs.nbytes + ys.nbytes
        assert outputs == 2 * 2 * steps * 8
        assert peak <= 1.5 * outputs, peak / outputs
        assert [g.draws for g in streams] == [steps * 5] * 2

    @pytest.mark.parametrize("shape", [16.0, 17.0])
    def test_gamma_noise_past_shape_16_is_one_inverted_uniform(self, shape):
        # up to 16 a step sums shape exponentials; past it, it inverts the CDF
        # at one uniform, as gammas does, then draws its Box-Muller pair
        from scipy.special import gammaincinv
        params = ModelParams(gamma_shape=shape)
        rng = RngStream(5)
        xs, _ = simulate_truth(3, rng, params)
        k = 16 if shape == 16.0 else 1
        assert rng.draws == 3 * (k + 2)
        u = RngStream(5).next_uniforms(k)
        noise = (2.0 * gammaincinv(shape, u[0]) if k == 1
                 else -2.0 * np.log1p(-u).sum())
        assert xs[0] == state_transition(0.0, 1, noise, params)

    @pytest.mark.parametrize("shape", [3.0, 2.5])
    def test_sequence_of_streams_gives_one_row_each(self, shape):
        params = ModelParams(gamma_shape=shape)
        streams = [RngStream(4).spawn(i) for i in range(3)]
        xs, ys = simulate_truth(12, streams, params)
        assert xs.shape == ys.shape == (3, 12)
        for i, g in enumerate(streams):
            alone = RngStream(g.seed)
            x, y = simulate_truth(12, alone, params)
            assert np.array_equal(xs[i], x) and np.array_equal(ys[i], y)
            assert g.draws == alone.draws


def old_simulate_truth(num_steps, rng, params):
    """simulate_truth as it was before it drew once: a Gamma column, then a
    normal column, each step, by the formulas of gammas and normals then."""
    from scipy.special import gammaincinv
    rows = [rng] if isinstance(rng, RngStream) else rng
    shape, whole = params.gamma_shape, float(params.gamma_shape).is_integer()
    xs, ys = np.empty((len(rows), num_steps)), np.empty((len(rows), num_steps))
    x = np.zeros(len(rows))
    for t in range(1, num_steps + 1):
        u = rng_module.uniform_rows(rows, int(shape) if whole else 1)
        if whole:
            u = u.reshape(len(rows), int(shape), 1)
            np.log1p(np.negative(u, out=u), out=u)
            noise = (-params.gamma_scale * u.sum(axis=-2))[..., 0]
        else:
            noise = (params.gamma_scale * gammaincinv(float(shape), u))[..., 0]
        x = old_state_transition(x, t, noise, params)
        u = rng_module.uniform_rows(rows, 2)
        r, theta = np.sqrt(-2.0 * np.log1p(-u[..., :1])), 2.0 * np.pi * u[..., 1:]
        v = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :1][..., 0]
        xs[:, t - 1] = x
        ys[:, t - 1] = old_measurement(x, t, v * params.obs_noise_std, params)
    return (xs[0], ys[0]) if isinstance(rng, RngStream) else (xs, ys)


def columns(result):
    """Every column of a BenchmarkResult, the sv columns in their key order."""
    return (result.x_true, result.y_obs, result.estimate, *result.sv.values())


def assert_same_result(a, b):
    assert list(a.sv) == list(b.sv)
    for x, y in zip(columns(a), columns(b), strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def sequential_mean_sv(result):
    """The per-record running sums aggregate_mean_sv took before the columns."""
    sums, counts = {}, {}
    runs, steps = result.estimate.shape
    sv = {m: column.tolist() for m, column in result.sv.items()}
    for run in range(runs):
        for t in range(1, steps + 1):
            for m, column in sv.items():
                key = (t, m)
                sums[key] = sums.get(key, 0.0) + column[run][t - 1]
                counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


class TestRunBenchmark:
    def test_minimal_config_single_record(self):
        cfg = BenchmarkConfig(num_particles=1, num_steps=1, num_mc_runs=1,
                              seed=5, methods=("msv",))
        result = run_benchmark(cfg)
        assert len(result) == 1
        assert all(c.shape == (1, 1) for c in columns(result))  # run 0, step 1
        assert list(result.sv) == ["msv"]
        assert result.sv["msv"][0, 0] == pytest.approx(0.0)

    def test_reproducible(self):
        cfg = BenchmarkConfig(num_particles=20, num_steps=8, num_mc_runs=3, seed=9)
        assert_same_result(run_benchmark(cfg), run_benchmark(cfg))

    def test_msv_dominates_every_record(self):
        cfg = BenchmarkConfig(num_particles=50, num_steps=35, num_mc_runs=4, seed=2)
        result = run_benchmark(cfg)
        for m, sv in result.sv.items():
            worse = np.argwhere(result.sv["msv"] > sv + 1e-12)
            assert worse.size == 0, (m, worse[:1])  # (run, t - 1)

    def test_no_step_resampling_mode(self):
        cfg = BenchmarkConfig(num_particles=30, num_steps=10, num_mc_runs=2,
                              seed=3, resample_each_step=False)
        result = run_benchmark(cfg)
        assert len(result) == 20

    def test_aggregate_means(self):
        cfg = BenchmarkConfig(num_particles=20, num_steps=4, num_mc_runs=5, seed=1)
        result = run_benchmark(cfg)
        agg = aggregate_mean_sv(result)
        assert set(t for t, _ in agg) == {1, 2, 3, 4}
        manual = np.mean(result.sv["msv"][:, 1])
        assert agg[(2, "msv")] == pytest.approx(manual)

    def test_arrays_past_memory_are_refused(self, monkeypatch, capsys):
        # stubs refuse every array past 2**30 entries: no real allocation is tried
        # for the 10**12 particles, steps or resampled copies
        real_empty, real_repeat = np.empty, np.repeat

        def empty(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 2**30:
                raise MemoryError("stubbed: no memory for this array")
            return real_empty(shape, *args, **kwargs)

        def repeat(a, repeats, *args, **kwargs):
            if np.sum(repeats) > 2**30:
                raise MemoryError("stubbed: no memory for this array")
            return real_repeat(a, repeats, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(np, "repeat", repeat)
        argv = ["benchmark", "--particles", str(10**12), "--runs", "1", "--steps", "1"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: runs x particles = 1 x 1000000000000 with 1 steps need at least "
            "7450.6 GiB of memory, more than can be allocated\n")
        with pytest.raises(ValidationError, match=r"^runs x particles = 2 x 3 with "
                           r"1000000000000 steps need at least 14901\.2 GiB of memory"):
            run_benchmark(BenchmarkConfig(num_particles=3, num_steps=10**12, num_mc_runs=2))
        p = ParticleSet([0.0, 1.0], [0.5, 0.5])
        for method in ("systematic", "residual", "msv"):  # the gather of 10**12 copies
            with pytest.raises(ValidationError, match=r"^num_out = 1000000000000 particles "
                               r"need 14901\.2 GiB of memory, more than can be allocated$"):
                sir_step(p, 0.3, 1, method, RngStream(0), num_out=10**12)

    def test_columns_are_runs_by_steps(self):
        cfg = BenchmarkConfig(num_particles=8, num_steps=5, num_mc_runs=3, seed=4,
                              methods=("rsr", "msv", "multinomial"))
        result = run_benchmark(cfg)
        assert len(result) == 3 * 5
        assert list(result.sv) == ["rsr", "msv", "multinomial"]
        for column in columns(result):
            assert column.shape == (3, 5) and column.dtype == np.float64

    @pytest.mark.parametrize("config, params", [
        (dict(), {}),
        (dict(num_particles=20, num_steps=10, seed=5), dict(gamma_shape=2.5)),
        # a sum over one-step columns would be pairwise, not run by run
        (dict(num_particles=20, num_steps=1, seed=3), {}),
    ], ids=["default", "shape-2.5", "one-step"])
    def test_aggregate_is_the_sequential_sum(self, config, params):
        result = run_benchmark(BenchmarkConfig(**config), ModelParams(**params))
        assert result.estimate.shape[0] == 100
        got, want = aggregate_mean_sv(result), sequential_mean_sv(result)
        assert list(got) == list(want)  # (t, method) order
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def record_digest(result):
    """Digest of the (run, t, x_true, y_obs, estimate, sv items) of every record."""
    h = hashlib.sha256()
    x_true, y_obs, estimate = (c.tolist() for c in (result.x_true, result.y_obs,
                                                    result.estimate))
    sv = {m: column.tolist() for m, column in result.sv.items()}
    for run, (xs, ys, es) in enumerate(zip(x_true, y_obs, estimate)):
        for t, (x, y, e) in enumerate(zip(xs, ys, es), 1):
            items = tuple((m, column[run][t - 1]) for m, column in sv.items())
            h.update(repr((run, t, x, y, e, items)).encode() + b"\n")
    return h.hexdigest()


def spy_kernels(monkeypatch) -> list:
    """Record (name, weights shape, n, streams) of each row-kernel call."""
    calls = []
    for fn, kernel in resampling._ROW_KERNELS.items():
        def spy(rows, rngs, kernel=kernel):
            calls.append((kernel.__name__, rows.weights.shape, rows.n, len(rngs)))
            return kernel(rows, rngs)
        monkeypatch.setitem(resampling._ROW_KERNELS, fn, spy)
    return calls


def spy_parts(monkeypatch) -> list:
    """Record the name of each part of a split as it is built."""
    parts = []
    cdf = vars(partition._Rows)["cdf"].func
    spy = functools.cached_property(lambda rows: parts.append("cdf") or cdf(rows))
    spy.__set_name__(partition._Rows, "cdf")
    monkeypatch.setattr(partition._Rows, "cdf", spy)
    for name in ("split", "residuals", "residual_cdf"):  # not cached: each caller reads them once
        build = getattr(partition._Rows, name)
        monkeypatch.setattr(partition._Rows, name, lambda rows, *a, build=build, name=name:
                            parts.append(name) or build(rows, *a))
    return parts


class TestBatchedRuns:
    """Every run steps as it would alone: digests and messages from the run-by-run loop."""

    @pytest.mark.parametrize("config, params, digest", [
        # fractional shapes invert the Gamma CDF; re-pinned once when that replaced
        # Marsaglia-Tsang, and equal to each run stepped alone on lone streams
        (dict(num_particles=30, num_steps=10, num_mc_runs=4, seed=5), dict(gamma_shape=2.5),
         "da039961309a7a3bed6ca413699f9c9ea90e7faaf31da16fbd052761900e114b"),
        (dict(num_particles=30, num_steps=10, num_mc_runs=4, seed=5), dict(gamma_shape=0.7),
         "985b2329a8275e025c1885a7d37538ffdb82033a6f92b446310d9cefd6c92b69"),
        (dict(num_particles=25, num_steps=12, num_mc_runs=5, seed=11,
              resample_each_step=False), {},
         "5874203427f1f2449d2b8468bd1a92b490fc02e4f1b850d563f9212a1e34fd24"),
        (dict(num_particles=25, num_steps=12, num_mc_runs=5, seed=11,
              resample_each_step=False, baseline_method="msv"), dict(gamma_shape=2.5),
         "d85ca5643b3a14a3720ae58b4fb6b203dc87a47387db29d81f8079ad0f692781"),
    ], ids=["shape-2.5", "shape-0.7", "no-step-resampling", "no-step-resampling-shape-2.5"])
    def test_records_match_run_by_run_digest(self, config, params, digest):
        result = run_benchmark(BenchmarkConfig(**config), ModelParams(**params))
        assert result.estimate.shape == (config["num_mc_runs"], config["num_steps"])
        assert record_digest(result) == digest

    @pytest.mark.parametrize("std, seed, message", [
        (1e-154, 2, "run 0: all particle weights vanished at step 4"),
        # runs 3 and 6 collapse earlier than run 1
        (1e-153, 1, "run 1: all particle weights vanished at step 17"),
        (1e-153, 3, "run 2: all particle weights vanished at step 9"),
        (3e-153, 1, "run 7: all particle weights vanished at step 16"),
        (3e-153, 3, "run 3: all particle weights vanished at step 19"),
    ])
    def test_collapse_names_lowest_run_and_its_first_step(self, std, seed, message):
        cfg = BenchmarkConfig(num_particles=10, num_steps=40, num_mc_runs=8, seed=seed,
                              methods=("msv",))
        with pytest.raises(ParticleCollapseError) as exc:
            run_benchmark(cfg, ModelParams(obs_noise_std=std))
        assert str(exc.value) == message

    def test_one_cdf_build_per_step(self, monkeypatch):
        # one (runs, particles) build serves multinomial, systematic, rsr and
        # the systematic baseline of every run
        builds = []
        cdf = partition._cdf
        monkeypatch.setattr(partition, "_cdf",
                            lambda running: builds.append(running.shape) or cdf(running))
        run_benchmark(BenchmarkConfig(num_particles=6, num_steps=3, num_mc_runs=4, seed=2))
        assert builds == [(4, 6)] * 3

    def test_residual_and_msv_share_one_set_of_floors_per_step(self, monkeypatch):
        # residual converts and checks the floors, msv reads them; each floors
        # n*w once for residuals of its own
        splits, split = [], partition._Rows.split
        monkeypatch.setattr(partition._Rows, "split",
                            lambda rows: splits.append(rows.floors is None) or split(rows))
        run_benchmark(BenchmarkConfig(num_particles=6, num_steps=3, num_mc_runs=4, seed=2))
        assert splits == [True, False] * 3

    def test_registry_called_once_per_run_step_and_scheme(self, monkeypatch):
        calls = []
        for name, fn in RESAMPLERS.items():
            def spy(p, n, rng, name=name, fn=fn):
                calls.append((name, p.states.shape, p.weights.weights.shape, n, rng.seed))
                return fn(p, n, rng)
            monkeypatch.setitem(RESAMPLERS, name, spy)
        cfg = BenchmarkConfig(num_particles=6, num_steps=3, num_mc_runs=4, seed=2,
                              methods=("msv", "rsr"))
        run_benchmark(cfg)
        assert len(calls) == 4 * 3 * 3  # two methods plus the baseline
        assert {c[1:4] for c in calls} == {((6,), (6,), 6)}
        # one stream per run and scheme, used at every step
        assert len({(c[0], c[4]) for c in calls}) == 4 * 3

    def test_one_row_kernel_call_per_step_and_scheme(self, monkeypatch):
        # with the registry untouched, each (step, scheme) is one call over
        # every run's row, and no run gets a population of its own
        calls, builds = spy_kernels(monkeypatch), []
        trusted = ParticleSet._trusted.__func__
        monkeypatch.setattr(ParticleSet, "_trusted", classmethod(
            lambda cls, *a: builds.append(a) or trusted(cls, *a)))
        monkeypatch.setattr(partition._Rows, "populations", lambda rows: builds.append(rows))
        cfg = BenchmarkConfig(num_particles=6, num_steps=3, num_mc_runs=4, seed=2)
        result = run_benchmark(cfg)
        assert len(calls) == 3 * (len(METHODS) + 1)  # the methods plus the baseline
        assert {c[1:] for c in calls} == {((4, 6), 6, 4)}
        assert sorted({c[0] for c in calls}) == ["_lmse_rows", "_multinomial_rows",
                                                 "_residual_rows", "_systematic_rows"]
        assert builds == []
        assert record_digest(result) == record_digest(run_benchmark(cfg))

    def test_sir_step_is_one_kernel_call_reading_one_part(self, monkeypatch):
        calls, parts = spy_kernels(monkeypatch), spy_parts(monkeypatch)
        p = ParticleSet(np.linspace(-1.0, 1.0, 8), np.full(8, 1 / 8))
        sir_step(p, 2.0, 3, "systematic", RngStream(1))
        assert [c[0] for c in calls] == ["_systematic_rows"]
        assert parts == ["cdf"]  # no floors, residuals or residual CDF

    @pytest.mark.parametrize("call, built", [
        (lambda: lmse_partition([0.3, 0.2, 0.5], 13), ["residuals", "split"]),
        (lambda: residuals([0.3, 0.2, 0.5], 13), ["residuals"]),
        (lambda: RESAMPLERS["residual"]([0.3, 0.2, 0.5], 13, RngStream(0)),
         ["residual_cdf", "residuals", "split"]),
        # nothing to draw: no residuals, and no residual CDF
        (lambda: RESAMPLERS["residual"]([0.25, 0.75], 8, RngStream(0)), ["split"]),
    ], ids=["lmse_partition", "residuals", "residual", "residual with no surplus"])
    def test_one_population_builds_only_the_parts_it_reads(self, call, built, monkeypatch):
        parts = spy_parts(monkeypatch)
        call()
        assert sorted(parts) == built

    def test_unhashable_registry_entry_is_called_per_run(self, monkeypatch):
        # the row kernels are looked up by identity; a hash lookup raised TypeError
        class Entry:
            __hash__ = None

            def __init__(self, fn):
                self.fn, self.calls = fn, 0

            def __call__(self, p, n, rng):
                self.calls += 1
                return self.fn(p, n, rng)

        cfg = BenchmarkConfig(num_particles=5, num_steps=2, num_mc_runs=3, seed=4)
        want = record_digest(run_benchmark(cfg))
        entry = Entry(RESAMPLERS["msv"])
        monkeypatch.setitem(RESAMPLERS, "msv", entry)
        assert record_digest(run_benchmark(cfg)) == want
        assert entry.calls == 3 * 2

    @pytest.mark.parametrize("shape, k", [(3.0, 3), (2.5, 1), (17.0, 1)])
    def test_each_family_draws_its_documented_uniforms(self, monkeypatch, shape, k):
        # truth k + 2 a step; filter its initial normals and k*M a step; multinomial
        # n a step, residual what the floors leave, systematic, rsr and the baseline
        # one, and msv none
        families, surplus = {}, []
        spawn, split = rng_module._Streams.spawn, partition._Rows.split

        def spy_spawn(rows, key):
            families[key] = spawn(rows, key)
            return families[key]

        def spy_split(rows):
            out = split(rows)
            if all(r is not rows for r, _ in surplus):  # msv reads the same split again
                surplus.append((rows, out[1]))
            return out

        monkeypatch.setattr(rng_module._Streams, "spawn", spy_spawn)
        monkeypatch.setattr(partition._Rows, "split", spy_split)
        runs, m, steps = 3, 7, 4
        run_benchmark(BenchmarkConfig(num_particles=m, num_steps=steps, num_mc_runs=runs,
                                      seed=2), ModelParams(gamma_shape=shape))
        assert len(surplus) == steps
        residual = np.sum([s for _, s in surplus], axis=0)
        want = {"truth": steps * (k + 2), "filter": 2 * ((m + 1) // 2) + steps * k * m,
                "baseline": steps, "multinomial": steps * m, "residual": residual,
                "systematic": steps, "rsr": steps, "msv": 0}
        keys = {"truth": 0, "filter": 1, "baseline": 2,
                **{method: 3 + i for i, method in enumerate(METHODS)}}
        assert set(families) == set(keys.values())
        for family, key in keys.items():
            got = families[key].counts
            assert np.array_equal(got, np.broadcast_to(want[family], runs)), family

    def test_run_streams_are_the_roots_spawned_rows(self, monkeypatch):
        # built by array operations, bit for bit RngStream(seed).spawn(run)
        for seed in (0, 2**64 - 1):
            roots = []
            spawn = rng_module._Streams.spawn
            monkeypatch.setattr(rng_module._Streams, "spawn",
                                lambda rows, key: roots.append(rows) or spawn(rows, key))
            run_benchmark(BenchmarkConfig(num_particles=3, num_steps=1, num_mc_runs=4, seed=seed))
            monkeypatch.undo()
            assert all(r is roots[0] for r in roots)
            assert roots[0].seeds.tolist() == [RngStream(seed).spawn(r).seed for r in range(4)]

    def test_runs_past_memory_are_refused(self, monkeypatch, capsys):
        # a stub refuses every array past 2**30 entries, so the root streams of
        # 10**12 runs are never allocated; they were built by a Python loop that
        # would have run for months before any array was asked for
        real = np.arange

        def arange(*args, **kwargs):
            if len(range(*args)) > 2**30:
                raise MemoryError("stubbed: no memory for this array")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "arange", arange)
        with pytest.raises(ValidationError, match=r"^runs x particles = 1000000000000 x 100 "
                           r"with 60 steps need at least 745058\.1 GiB of memory"):
            run_benchmark(BenchmarkConfig(num_mc_runs=10**12))
        assert main(["benchmark", "--runs", str(10**12)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: runs x particles = 1000000000000 x 100")

    def test_stream_bookkeeping_does_not_grow_with_steps(self, monkeypatch):
        # only the root stream is built, and no stream is checked: the run streams
        # are spawned as rows, and every later draw, spawn and slice is array work
        # on stream rows, however many steps there are
        def bookkeeping(steps):
            checks, builds = [], []
            check, init = rng_module._stream_rows, RngStream.__init__

            def spy_check(rngs):
                if not isinstance(rngs, rng_module._Streams):  # rows are not checked again
                    checks.append(rngs)
                return check(rngs)

            monkeypatch.setattr(rng_module, "_stream_rows", spy_check)
            monkeypatch.setattr(model, "_stream_rows", spy_check)
            monkeypatch.setattr(RngStream, "__init__",
                                lambda g, seed: builds.append(seed) or init(g, seed))
            run_benchmark(BenchmarkConfig(num_particles=6, num_steps=steps, num_mc_runs=4,
                                          seed=2), ModelParams(gamma_shape=3.0))
            monkeypatch.undo()
            return len(checks), len(builds)

        assert bookkeeping(3) == bookkeeping(30) == (0, 1)  # the root alone

    @pytest.mark.parametrize("change, got", [
        (lambda c: c - (np.arange(c.size) == c.argmax()), "5 counts summing to 4"),
        (lambda c: c + (np.arange(c.size) == 0), "5 counts summing to 6"),
        (lambda c: np.append(c, 0), "6 counts summing to 5"),
    ], ids=["n - 1", "n + 1", "M + 1"])
    @pytest.mark.parametrize("method", ["systematic", "rsr"], ids=["baseline", "method"])
    def test_replaced_entry_with_bad_counts_is_refused(self, method, change, got,
                                                       monkeypatch):
        # a baseline's bad counts failed to reshape or to broadcast in NumPy,
        # and a method's sum of n + 1 was taken as its own n
        def bad(p, n, rng, fn=RESAMPLERS[method]):
            return Allocation(change(fn(p, n, rng).sizes))

        monkeypatch.setitem(RESAMPLERS, method, bad)
        cfg = BenchmarkConfig(num_particles=5, num_steps=2, num_mc_runs=2,
                              methods=("msv", "rsr"))
        with pytest.raises(ValidationError) as exc:
            run_benchmark(cfg)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == f"{method} returned {got} for run 0 at step 1; M = 5, n = 5"

    def test_step_holds_few_population_arrays(self):
        # run_benchmark's traced peak, in (runs, particles) float64 arrays: 26.0
        # while every scheme's counts lived to the end of the step and the
        # noise, the log weights and the weights were each copied
        runs, m = 50, 20_000
        cfg = BenchmarkConfig(num_particles=m, num_steps=2, num_mc_runs=runs)
        tracemalloc.start()
        try:
            run_benchmark(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 8 * runs * m, peak / (8 * runs * m)

    def test_replaced_entry_sees_each_runs_stream_at_its_position(self, monkeypatch):
        # a replaced entry gets a stream per (run, step) made from the stream
        # rows; each must start where that run's earlier calls left off
        seen = {name: {} for name in ("multinomial", "residual", "systematic", "rsr")}
        for name in seen:
            def spy(p, n, g, name=name, fn=RESAMPLERS[name]):
                before = g.draws
                out = fn(p, n, g)
                if name == "residual":  # n - L uniforms: the units the floors leave
                    assert g.draws - before == n - np.floor(n * p.weights.weights).sum()
                seen[name].setdefault(g.seed, []).append((before, g.draws))
                return out
            monkeypatch.setitem(RESAMPLERS, name, spy)
        cfg = BenchmarkConfig(num_particles=7, num_steps=5, num_mc_runs=4, seed=6,
                              methods=tuple(seen), baseline_method="multinomial")
        result = run_benchmark(cfg)
        for name, runs in seen.items():
            # four runs; the baseline's streams are multinomial's other four
            assert len(runs) == (8 if name == "multinomial" else 4)
            for calls in runs.values():
                assert len(calls) == 5
                assert [b for b, _ in calls] == [0] + [a for _, a in calls[:-1]]
                if name in ("systematic", "rsr"):
                    assert [b for b, _ in calls] == [0, 1, 2, 3, 4]  # t - 1
                elif name == "multinomial":
                    assert [b for b, _ in calls] == [0, 7, 14, 21, 28]  # (t - 1) * n
        monkeypatch.undo()
        assert record_digest(result) == record_digest(run_benchmark(cfg))

    @pytest.mark.parametrize("shape", [3.0, 2.5], ids=["integer shape", "fractional shape"])
    def test_first_run_of_many_equals_one_run_alone(self, shape):
        # row 0 draws from stream rows, the one run from lone RngStreams
        cfg = dict(num_particles=20, num_steps=8, seed=3, baseline_method="residual")
        many = run_benchmark(BenchmarkConfig(num_mc_runs=4, **cfg), ModelParams(gamma_shape=shape))
        one = run_benchmark(BenchmarkConfig(num_mc_runs=1, **cfg), ModelParams(gamma_shape=shape))
        for name in ("x_true", "y_obs", "estimate"):
            assert np.array_equal(getattr(many, name)[:1], getattr(one, name)), name
        assert list(many.sv) == list(one.sv)
        for m in one.sv:
            assert np.array_equal(many.sv[m][:1], one.sv[m]), m

    @pytest.mark.parametrize("runs", [512, 513])
    def test_row_kernels_match_registry_calls_at_the_key_sort_limit(self, runs, monkeypatch):
        # 512 rows fill one uint64 key sort; the 513th run starts a second
        cfg = BenchmarkConfig(num_particles=5, num_steps=3, num_mc_runs=runs, seed=9)
        rows = run_benchmark(cfg)
        calls = []
        for name, fn in RESAMPLERS.items():
            def spy(p, n, rng, fn=fn):
                calls.append(n)
                return fn(p, n, rng)
            monkeypatch.setitem(RESAMPLERS, name, spy)
        per_row = run_benchmark(cfg)
        assert len(calls) == runs * 3 * (len(METHODS) + 1)
        assert record_digest(rows) == record_digest(per_row)


def float_scratch_sv(counts, stored, n):
    """A step's sv as taken before n*w was shared: n*w into a float scratch, then
    the discrepancies in its place."""
    d = np.empty_like(stored)
    d = np.subtract(counts, np.multiply(stored, n, out=d), out=d)
    d *= d
    return np.add.reduce(d, axis=1) / d.shape[1]


@pytest.mark.parametrize("kind, replaced", [(lambda c: c.astype(np.int32), "int32"),
                                            (lambda c: c.tolist(), "own")],
                         ids=["int32 counts", "list counts"])
def test_svs_through_the_counts_buffer_match_a_float_scratch(kind, replaced, monkeypatch):
    # the int64 counts of a row kernel, or of a replaced entry's lists, take their
    # sv's discrepancies in their own buffer; int32 counts take a fresh one
    cfg = BenchmarkConfig(num_particles=9, num_steps=4, num_mc_runs=3, seed=8)
    want = record_digest(run_benchmark(cfg))
    for name in ("residual", "msv"):
        monkeypatch.setitem(RESAMPLERS, name, lambda p, n, g, fn=RESAMPLERS[name]:
                            types.SimpleNamespace(sizes=kind(fn(p, n, g).sizes)))
    built, scratch, rows, sv = [], [], model._Rows, model._sv
    monkeypatch.setattr(model, "_Rows", lambda w, n, nw: built.append((w, n)) or rows(w, n, nw))

    def spy_sv(counts, nw, d=None):
        stored, n = built[-1]
        old = float_scratch_sv(np.array(counts), stored, n)  # before d overwrites the counts
        got = sv(counts, nw, d)
        assert got.tobytes() == old.tobytes()
        scratch.append("own" if d is not None else counts.dtype.name)
        return got

    monkeypatch.setattr(model, "_sv", spy_sv)
    assert record_digest(run_benchmark(cfg)) == want
    assert scratch == ["own", replaced, "own", "own", replaced] * 4  # in METHODS order


def test_sir_step_takes_its_sv_in_a_fresh_scratch(monkeypatch):
    # its one scheme is measured and advances: its counts stay whole for the
    # gather, and the golden step is unchanged
    seen, sv = [], model._sv
    monkeypatch.setattr(model, "_sv", lambda c, nw, d=None: seen.append(d) or sv(c, nw, d))
    p = ParticleSet([0.0, 1.0, -0.5], WeightVector([1 / 3] * 3))
    new, _, got = sir_step(p, 1.5, 1, "systematic", RngStream(7))
    assert seen == [None]
    assert got == pytest.approx(1.842306531256124e-05, rel=1e-12)
    assert list(new.states) == [3.658990534672466] * 3


def finset_lines(runs, seed):
    """Python lines executed inside finset's modules by a 2-step run at M = 100."""
    root, count = os.path.dirname(model.__file__), [0]

    def line(frame, event, arg):
        count[0] += event == "line"
        return line

    cfg = BenchmarkConfig(num_particles=100, num_steps=2, num_mc_runs=runs, seed=seed)
    run_benchmark(cfg)  # warm: first-use imports and caches are not counted
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(root)
                 else None)
    try:
        run_benchmark(cfg)
    finally:
        sys.settrace(None)
    return count[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_step_runs_no_python_per_row(seed):
    # at M = 100 every block loop runs once at 2 and at 100 rows, so only per-row
    # Python adds lines; the tie fix of the rows whose cut ties is all that is left
    # (a surplus tuple and its per-row checks took 1 864 -> 3 436 lines, +84 %)
    few, many = finset_lines(2, seed), finset_lines(100, seed)
    assert many <= 1.02 * few, (few, many)
