"""SIR particle filter benchmark on a 1-d nonlinear switching model.

State transition:   x_t = 1 + sin(omega*pi*t) + phi1*x_{t-1} + u_t,
with Gamma(shape, scale) process noise. The observation is quadratic
(phi2*x^2 + v) up to the switch timestep and linear (phi3*x - 2 + v) after,
with Gaussian observation noise.

The benchmark runs one shared SIR filter per Monte Carlo run and, at every
step, applies each configured resampling scheme to the identical
pre-resampling weighted population, recording the sampling variance each
scheme attains. A designated baseline scheme (systematic by default)
advances the shared population, so every scheme sees bit-identical inputs.

All runs step together as the rows of (runs, particles) arrays, each run
with its own streams, held as stream rows (``rng._Streams``), so every
value is the one a run stepped alone would give; ``sir_step`` is that step
for one run. Each step splits the runs'
weights once (``partition._Rows``), and each scheme's row kernel resamples
every run in one call. ``RESAMPLERS`` is the extension point: an entry
replaced by another function is called once per run, with that run's
population and stream. ``run_benchmark`` returns (runs, steps) columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import ValidationError, _check_n, _Rows
# counts_to_indices is not called here, but finbench's tracer wraps it by this name
from .resampling import (_ROW_KERNELS, RESAMPLERS, ParticleSet, counts_to_indices,
                         sampling_variance)
from .rng import RngStream, _check_type, _finite, _integer, _stream_rows, _Streams, gammas, normals

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
    """(runs, steps) float64 columns: row r, column t - 1 is run r at step t.

    ``sv`` maps each method, in ``config.methods`` order, to its column.
    """

    x_true: np.ndarray
    y_obs: np.ndarray
    estimate: np.ndarray
    sv: dict[str, np.ndarray]

    def __len__(self):  # the number of (run, step) records
        return self.estimate.size


def state_transition(x_prev, t, u, params: ModelParams = ModelParams()):
    """Propagate the state one step; works elementwise on arrays."""
    return 1.0 + np.sin(params.omega * np.pi * t) + params.phi1 * np.asarray(x_prev) + u


def measurement(x, t, v, params: ModelParams = ModelParams()):
    """Observation function: quadratic regime through the switch step, linear after."""
    if t <= params.switch_time:
        return params.phi2 * np.asarray(x) ** 2 + v
    return params.phi3 * np.asarray(x) - 2.0 + v


def likelihood(y_obs, x, t, params: ModelParams = ModelParams()):
    """Gaussian observation density of y_obs given state x at step t."""
    return np.exp(_log_likelihood(y_obs, x, t, params))


def _log_likelihood(y_obs, x, t, params):
    std = params.obs_noise_std
    d = (y_obs - measurement(x, t, 0.0, params)) / std
    return -0.5 * d * d - math.log(math.sqrt(2.0 * math.pi) * std)


def _collapse(t, run=None) -> ParticleCollapseError:
    where = "" if run is None else f"run {run}: "
    return ParticleCollapseError(f"{where}all particle weights vanished at step {t}")


def _step(states, prior, y_obs, t, rngs, params, n, schemes, advance):
    """One SIR step of the R runs in the rows of (R, M) states and prior weights.

    Row r draws from rngs[r] and is weighed against y_obs[r]. The rows before
    the first collapsed one are resampled at n units by each (method, streams)
    of schemes; with advance, the last scheme's counts copy the states.
    Returns the states, their weights, the weights as WeightVector would
    store them, the weighted-mean estimates and each scheme's counts.
    """
    noise = gammas(rngs, params.gamma_shape, params.gamma_scale, states.shape[1])
    states = state_transition(states, t, noise, params)
    with np.errstate(divide="ignore", over="ignore"):  # log(0) and d*d -> -inf
        logw = np.log(prior) + _log_likelihood(y_obs[:, None], states, t, params)
    top = np.max(logw, axis=1, keepdims=True)
    collapsed = np.flatnonzero(~np.isfinite(top[:, 0]))
    live = int(collapsed[0]) if collapsed.size else len(states)
    states, logw, top = states[:live], logw[:live], top[:live]
    # no log weight is nan or +inf once the largest is finite, so the shifted
    # weights hold a 1 and their total is finite and at least 1
    w = np.exp(logw - top)
    w = w / w.sum(axis=1, keepdims=True)
    stored = w / w.sum(axis=1, keepdims=True)  # WeightVector's renormalisation
    # stacked matmul is bit-equal to one BLAS dot per row
    estimates = np.matmul(states[:, None, :], w[:, :, None])[:, 0, 0]
    states.flags.writeable = stored.flags.writeable = False
    if not live:
        return states, w, stored, estimates, []
    rows, counts = _Rows(stored, n), []
    for method, streams in schemes:
        fn, streams = RESAMPLERS[method], streams[:live]
        # one row-kernel call; an entry replaced by another function is called
        # per row, as for one run (found by identity: it need not be hashable)
        kernel = next((k for f, k in _ROW_KERNELS.items() if f is fn), None)
        if kernel is None:
            psets = map(ParticleSet._trusted, states, rows.populations())
            draw = lambda gs: np.array([fn(p, n, g).sizes for p, g in zip(psets, gs)])
            counts.append(streams.each(draw) if isinstance(streams, _Streams) else draw(streams))
        else:
            counts.append(kernel(rows, streams))
    if advance:
        copies = np.repeat(np.arange(states.size), counts[-1].ravel())
        states, w = states.ravel()[copies].reshape(live, n), np.full((live, n), 1.0 / n)
    return states, w, stored, estimates, counts


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
    states, weights, stored, estimates, counts = _step(
        p.states[None], p.weights.weights[None], np.array([y_obs], dtype=float), t,
        [rng], params, n_out, [(method, [rng])], True)
    if not estimates.size:
        raise _collapse(t)
    sv = float(sampling_variance(counts[0], stored)[0])
    return ParticleSet(states[0], weights[0]), float(estimates[0]), sv


def simulate_truth(num_steps, rng, params: ModelParams = ModelParams()):
    """Ground-truth trajectories and their observations, steps 1..num_steps.

    rng is one stream, for two arrays of num_steps values, or a sequence of R
    streams, for two (R, num_steps) arrays whose row r comes from rng[r].
    Each step draws its Gamma noise, then its observation noise.
    """
    num_steps = _integer("num_steps", num_steps, 1, limited=True)
    rows = _stream_rows([rng] if isinstance(rng, RngStream) else rng)  # one: a lone stream
    xs = np.empty((len(rows) if isinstance(rows, _Streams) else 1, num_steps))
    ys = np.empty(xs.shape)
    x = np.zeros(len(xs))
    for t in range(1, num_steps + 1):
        u = gammas(rows, params.gamma_shape, params.gamma_scale, 1)[..., 0]
        x = state_transition(x, t, u, params)
        v = normals(rows, 1)[..., 0] * params.obs_noise_std
        xs[:, t - 1] = x
        ys[:, t - 1] = measurement(x, t, v, params)
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
    # each family spawns every run's stream at once; one run keeps its lone stream
    rows = _stream_rows(map(RngStream(config.seed).spawn, range(runs)))
    family = rows.spawn if runs > 1 else lambda key: [rows.spawn(key)]
    filter_rngs = family(1)
    # each scheme in turn, and then the baseline, which advances the population
    schemes = [(m, family(3 + i)) for i, m in enumerate(config.methods)]
    if config.resample_each_step:
        schemes.append((config.baseline_method, family(2)))

    xs, ys = simulate_truth(steps, family(0), params)
    states = normals(filter_rngs, npart)  # initial particles ~ N(0, 1)
    weights = np.full((runs, npart), 1.0 / npart)
    estimates = np.empty((runs, steps))
    svs = {m: np.empty((runs, steps)) for m in config.methods}
    collapse = None
    for t in range(1, steps + 1):
        states, weights, stored, est, counts = _step(
            states, weights, ys[:len(filter_rngs), t - 1], t, filter_rngs, params, npart,
            schemes, config.resample_each_step)
        live = len(est)
        if live < len(filter_rngs):
            # the runs from the collapsed one on can no longer be the one reported
            collapse = _collapse(t, live)
            if not live:
                break
            filter_rngs = filter_rngs[:live]
        estimates[:live, t - 1] = est
        for m, c in zip(config.methods, counts):
            svs[m][:live, t - 1] = sampling_variance(c, stored)
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
