"""SIR particle filter benchmark on a 1-d nonlinear switching model.

State transition:   x_t = 1 + sin(omega*pi*t) + phi1*x_{t-1} + u_t,
with Gamma(shape, scale) process noise. The observation is quadratic
(phi2*x^2 + v) up to the switch timestep and linear (phi3*x - 2 + v) after,
with Gaussian observation noise. The truth's step t takes k + 2 uniforms of
its stream: the k of its Gamma noise (``rng._gamma_uniforms``), then the
Box-Muller pair of its observation noise.

The benchmark runs one shared SIR filter per Monte Carlo run and, at every
step, applies each configured resampling scheme to the identical weighted
population, recording each scheme's sampling variance. A baseline scheme
(systematic by default) advances the population. All runs step together as
the rows of (runs, particles) arrays, each with its own stream rows
(``rng._Streams``), so every value is the one a run stepped alone would
give; ``sir_step`` is that step for one run. ``RESAMPLERS`` is the extension
point: an entry replaced by another function is called once per run, with
that run's population and stream, and must return M counts summing to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import ValidationError, _check_n, _Rows
# counts_to_indices and sampling_variance are not called here; finbench's tracer wraps them
from .resampling import (_ROW_KERNELS, RESAMPLERS, ParticleSet, _sv, counts_to_indices,
                         sampling_variance)
from .rng import (_BLOCK, RngStream, _check_type, _finite, _gamma_uniforms, _gamma_variates,
                  _integer, _normal_variates, _spawn_rows, _stream_rows, _Streams, gammas,
                  normals, uniform_rows)

METHODS = tuple(RESAMPLERS)


class ParticleCollapseError(RuntimeError):
    """All particle weights vanished after the likelihood update."""


def _check_method(name: str, method) -> None:
    if not (isinstance(method, str) and method in RESAMPLERS):  # a list is unhashable
        raise ValidationError(f"{name} must name a resampling method, got {method!r}")


@dataclass(frozen=True)
class ModelParams:
    omega: float = 0.04
    phi1: float = 0.5
    phi2: float = 0.2
    phi3: float = 0.5
    switch_time: int = 30
    gamma_shape: float = 3.0
    gamma_scale: float = 2.0
    obs_noise_std: float = 1.0

    def __post_init__(self):
        # a nan or infinite parameter would surface as a particle collapse
        for name in ("omega", "phi1", "phi2", "phi3"):
            _finite(name, getattr(self, name))
        for name in ("gamma_shape", "gamma_scale", "obs_noise_std"):
            _finite(name, getattr(self, name), positive=True)
        # nan would pass a comparison with 1 and give the linear regime throughout
        object.__setattr__(self, "switch_time", _integer("switch_time", self.switch_time, 1))


@dataclass(frozen=True)
class BenchmarkConfig:
    num_particles: int = 100
    num_steps: int = 60
    num_mc_runs: int = 100
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    baseline_method: str = "systematic"
    resample_each_step: bool = True

    def __post_init__(self):
        for name in ("num_particles", "num_steps", "num_mc_runs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1, limited=True))
        # a float seed would be truncated, so two configs would give one run
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        try:  # a str is a sequence too, of one-letter "methods"
            methods = None if isinstance(self.methods, str) else tuple(self.methods)
        except TypeError:
            methods = None
        if methods is None:
            raise ValidationError(f"methods must be a sequence of method names, not a "
                                  f"{type(self.methods).__name__} ({self.methods!r})")
        if not methods:
            raise ValidationError("at least one resampling method is required")
        for i, m in enumerate(methods):
            _check_method(f"methods[{i}]", m)
        _check_method("baseline_method", self.baseline_method)
        # each method draws from its own stream, keyed by the method's name
        repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
        if repeated:
            raise ValidationError(f"resampling method {repeated[0]!r} is listed twice")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """(runs, steps) float64 columns, row r and column t - 1 run r at step t; ``sv``
    maps each method, in ``config.methods`` order, to its column."""

    x_true: np.ndarray
    y_obs: np.ndarray
    estimate: np.ndarray
    sv: dict[str, np.ndarray]

    def __len__(self):  # the number of (run, step) records
        return self.estimate.size


def _into(op, a, b, own):
    """op(a, b) (add, subtract, multiply, divide) into own, the caller's a or b, when own is
    float64 and the other a float or a float64 array of own's shape or a column of its rows."""
    other = b if own is a else a
    if type(own) is np.ndarray and own.dtype == np.float64 and (isinstance(other, float) or (
            type(other) is np.ndarray and other.dtype == np.float64
            and other.shape in (own.shape, own.shape[:-1] + (1,)))):
        return op(a, b, out=own)
    return op(a, b)


def state_transition(x_prev, t, u, params: ModelParams = ModelParams()):
    """Propagate the state one step; works elementwise on arrays."""
    x = params.phi1 * np.asarray(x_prev)
    x = _into(np.add, x, 1.0 + np.sin(params.omega * np.pi * t), x)  # (1 + sin) + phi1*x
    return _into(np.add, x, u, x)


def measurement(x, t, v, params: ModelParams = ModelParams()):
    """Observation function: quadratic regime through the switch step, linear after."""
    return _into(np.add, y := _observe(x, t, params), v, y)


def _observe(x, t, params):  # the measurement without its noise
    quadratic = t <= params.switch_time
    y = np.asarray(x) ** 2 if quadratic else params.phi3 * np.asarray(x)
    return _into(np.multiply, y, params.phi2, y) if quadratic else _into(np.subtract, y, 2.0, y)


def likelihood(y_obs, x, t, params: ModelParams = ModelParams()):
    """Gaussian observation density of y_obs given state x at step t."""
    return np.exp(_log_likelihood(y_obs, x, t, params))


def _log_likelihood(y_obs, x, t, params):
    std = params.obs_noise_std
    d = _observe(x, t, params)
    d = _into(np.divide, _into(np.subtract, y_obs, d, d), std, d)
    ll = -0.5 * d  # then times d: two arrays
    return _into(np.subtract, _into(np.multiply, ll, d, ll),
                 math.log(math.sqrt(2.0 * math.pi) * std), ll)


def _collapse(t, run=None) -> ParticleCollapseError:
    where = "" if run is None else f"run {run}: "
    return ParticleCollapseError(f"{where}all particle weights vanished at step {t}")


def _scheme(method, streams):
    """(method, its registry entry, the entry's row kernel or None if replaced, streams)."""
    fn = RESAMPLERS[method]  # the kernel is found by identity: an entry need not be hashable
    return method, fn, next((k for f, k in _ROW_KERNELS.items() if f is fn), None), streams


def _step(states, prior, y_obs, t, rngs, params, n, schemes, advance, measured):
    """One SIR step of the R runs in the rows of (R, M) states and prior weights.

    The prior may be an (R, 1) column of equal weights. Row r draws from rngs[r] and is
    weighed against y_obs[r]. The rows before the first collapsed one are resampled at n
    units by each ``_scheme``, whose streams are cut to them in place; with advance, the
    last scheme's counts copy the states, whose prior is then a column of 1/n.
    Returns the states, their weights, the estimates and the first ``measured`` svs.
    """
    states = state_transition(  # the noise is freed on return
        states, t, gammas(rngs, params.gamma_shape, params.gamma_scale, states.shape[1]), params)
    with np.errstate(divide="ignore", over="ignore"):  # log(0) and d*d -> -inf
        w = _log_likelihood(y_obs[:, None], states, t, params)  # the log weights, at first
        w += np.log(prior)
    top = np.max(w, axis=1, keepdims=True)
    collapsed = np.flatnonzero(~np.isfinite(top[:, 0]))
    live = int(collapsed[0]) if collapsed.size else len(states)
    states, w = states[:live], w[:live]
    # no log weight is nan or +inf once the largest is finite, so the shifted
    # weights hold a 1 and their total is finite and at least 1
    np.exp(np.subtract(w, top[:live], out=w), out=w)
    w /= w.sum(axis=1, keepdims=True)
    # stacked matmul is bit-equal to one BLAS dot per row
    estimates = np.matmul(states[:, None, :], w[:, :, None])[:, 0, 0]
    # WeightVector's renormalisation, in place when w is not returned
    stored = np.divide(w, w.sum(axis=1, keepdims=True), out=w if advance else None)
    states.flags.writeable = stored.flags.writeable = False
    if not live:
        return states, w, estimates, []
    if live < len(top):
        schemes[:] = [(method, fn, kernel, g[:live]) for method, fn, kernel, g in schemes]
    # n*w formed once, for the floors and every sv; each sv's discrepancies go
    # through its counts' own buffer, as float64 (the same bits), where it can
    rows, svs, m = _Rows(stored, n, nw := np.multiply(stored, n)), [], states.shape[1]
    for i, (method, fn, kernel, streams) in enumerate(schemes):
        counts = None  # the last scheme's are freed before this one draws
        if kernel is None:  # a replaced entry is called per row, as for one run
            psets = map(ParticleSet._trusted, states, rows.populations())
            draw = lambda gs: [fn(p, n, g).sizes for p, g in zip(psets, gs)]
            counts = streams.each(draw) if isinstance(streams, _Streams) else draw(streams)
            for r, c in enumerate(counts):  # sv is measured at n: M counts must sum to it
                if np.shape(c) != (m,) or np.sum(c) != n:
                    raise ValidationError(f"{method} returned {np.size(c)} counts summing to "
                                          f"{np.sum(c)} for run {r} at step {t}; M = {m}, n = {n}")
            counts = np.array(counts)
        else:
            counts = kernel(rows, streams)
        if i < measured:  # not the counts that copy the states, nor ones of another kind
            own = i < len(schemes) - advance and counts.dtype == np.int64 and counts.flags.carray
            svs.append(_sv(counts, nw, counts.view(np.float64) if own else None))
    del rows, stored, nw  # their arrays are freed before the gather
    if advance:
        states = np.repeat(states.ravel(), counts.ravel()).reshape(live, n)
        w = np.full((live, 1), 1.0 / n)
    return states, w, estimates, svs


def sir_step(p: ParticleSet, y_obs, t, method, rng: RngStream,
             params: ModelParams = ModelParams(), num_out=None):
    """One propagate-weight-resample step: ``run_benchmark``'s step for one run.

    Returns (new equally weighted ParticleSet, weighted-mean estimate before
    resampling, sampling variance of the resample counts).
    """
    _check_type("p", p, ParticleSet)
    _check_type("rng", rng, RngStream)
    _check_type("params", params, ModelParams)
    _check_method("method", method)
    n_out = len(p) if num_out is None else _check_n(num_out)
    # a nan or infinite y_obs, or a nan t, would surface as a particle collapse
    _finite("y_obs", y_obs)
    t = _integer("t", t, 1)
    try:
        states, weights, estimates, svs = _step(
            p.states[None], p.weights.weights[None], np.array([y_obs], dtype=float), t,
            [rng], params, n_out, [_scheme(method, [rng])], True, 1)
    except MemoryError:  # the gather: an index and a state a particle, 8 bytes each
        raise ValidationError(f"num_out = {n_out} particles need {16 * n_out / 2**30:.1f} GiB "
                              f"of memory, more than can be allocated") from None
    if not estimates.size:
        raise _collapse(t)
    weights = np.broadcast_to(weights[0], n_out)  # the column of 1/n, as a row
    return ParticleSet(states[0], weights), float(estimates[0]), float(svs[0][0])


def simulate_truth(num_steps, rng, params: ModelParams = ModelParams()):
    """Ground-truth trajectories and their observations, steps 1..num_steps.

    rng is one stream, for two arrays of num_steps values, or a sequence of R
    streams, for two (R, num_steps) arrays whose row r comes from rng[r]. The
    steps' uniforms (see above) are drawn together, 2**15 (or one step's) at most.
    """
    num_steps = _integer("num_steps", num_steps, 1, limited=True)
    rows = _stream_rows([rng] if isinstance(rng, RngStream) else rng)  # one: a lone stream
    rows = [rows] if isinstance(rows, RngStream) else rows  # which uniform_rows draws alone
    k = _gamma_uniforms(params.gamma_shape)
    xs = np.empty((len(rows), num_steps))
    ys, x = np.empty(xs.shape), np.zeros(len(xs))
    block = max(1, _BLOCK // (len(xs) * (k + 2)))
    for b in range(0, num_steps, block):
        s = min(block, num_steps - b)
        u = uniform_rows(rows, s * (k + 2)).reshape(len(xs), s, k + 2)
        # summed along a contiguous axis, as gammas sums a draw's uniforms at size 1
        noise = _gamma_variates(u[..., :k], params.gamma_shape, params.gamma_scale, -1)
        v = _normal_variates(u[..., k:], 1)[..., 0] * params.obs_noise_std
        for j, t in enumerate(range(b + 1, b + s + 1)):  # the state recursion, step by step
            x = xs[:, t - 1] = state_transition(x, t, noise[:, j], params)
            ys[:, t - 1] = measurement(x, t, v[:, j], params)
    return (xs[0], ys[0]) if isinstance(rng, RngStream) else (xs, ys)


def run_benchmark(config: BenchmarkConfig,
                  params: ModelParams = ModelParams()) -> BenchmarkResult:
    """Run the full comparison; its outputs as (runs, steps) columns.

    A collapse raises ParticleCollapseError naming the lowest run that
    collapses and its first collapse step, as running the runs in turn would.
    """
    _check_type("config", config, BenchmarkConfig)
    _check_type("params", params, ModelParams)
    npart, steps, runs = config.num_particles, config.num_steps, config.num_mc_runs
    try:
        # each family spawns every run's stream at once; one run keeps its lone stream
        root = RngStream(config.seed)
        keys = np.arange(runs, dtype=np.uint64) if runs > 1 else None
        rows = root.spawn(0) if keys is None else _spawn_rows(np.uint64(root.seed), keys)
        family = rows.spawn if runs > 1 else lambda key: [rows.spawn(key)]
        filter_rngs = family(1)
        # each scheme in turn, and then the baseline, which advances the population
        schemes = [_scheme(m, family(3 + i)) for i, m in enumerate(config.methods)]
        if config.resample_each_step:
            schemes.append(_scheme(config.baseline_method, family(2)))
        xs, ys = simulate_truth(steps, family(0), params)
        states = normals(filter_rngs, npart)  # initial particles ~ N(0, 1)
        weights = np.full((runs, 1), 1.0 / npart)  # the prior as a column: equal weights
        estimates = np.empty((runs, steps))
        svs = {m: np.empty((runs, steps)) for m in config.methods}
        collapse = None
        for t in range(1, steps + 1):
            states, weights, est, step_svs = _step(
                states, weights, ys[:len(filter_rngs), t - 1], t, filter_rngs, params, npart,
                schemes, config.resample_each_step, len(config.methods))
            live = len(est)
            if live < len(filter_rngs):
                # the runs from the collapsed one on can no longer be the one reported
                collapse = _collapse(t, live)
                if not live:
                    break
                filter_rngs = filter_rngs[:live]
            estimates[:live, t - 1] = est
            for m, sv in zip(config.methods, step_svs):  # the baseline's, last, is not taken
                svs[m][:live, t - 1] = sv
    except MemoryError:  # a float64 array of runs x particles, and one of runs x steps
        raise ValidationError(f"runs x particles = {runs} x {npart} with {steps} steps need at "
                              f"least {8 * runs * max(npart, steps) / 2**30:.1f} GiB of memory, "
                              f"more than can be allocated") from None
    if collapse is not None:
        raise collapse

    return BenchmarkResult(xs, ys, estimates, svs)


def aggregate_mean_sv(result: BenchmarkResult) -> dict[tuple[int, str], float]:
    """Per-(timestep, method) mean sampling variance across runs, in that order.

    The runs are added in order: unlike a sum, an accumulate is never pairwise.
    """
    runs, steps = result.estimate.shape
    means = {m: (np.cumsum(sv, axis=0)[-1] / runs).tolist() for m, sv in result.sv.items()}
    return {(t, m): means[m][t - 1] for t in range(1, steps + 1) for m in means}
