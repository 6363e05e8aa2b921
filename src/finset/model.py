"""SIR particle filter benchmark on a 1-d nonlinear switching model.

State transition:   x_t = 1 + sin(omega*pi*t) + phi1*x_{t-1} + u_t,
with Gamma(shape, scale) process noise. The observation is quadratic
(phi2*x^2 + v) up to the switch timestep and linear (phi3*x - 2 + v) after,
with Gaussian observation noise.

The benchmark runs one shared SIR filter per Monte Carlo run and, at every
step, applies each configured resampling scheme to the identical
pre-resampling weighted population, recording the sampling variance each
scheme attains. A designated baseline scheme (systematic by default)
advances the shared population, so the comparison is fair: every scheme sees
bit-identical inputs at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import ValidationError, WeightVector
from .resampling import (
    RESAMPLERS,
    ParticleSet,
    counts_to_indices,
    sampling_variance,
)
from .rng import RngStream, gammas, normals

METHODS = tuple(RESAMPLERS)


class ParticleCollapseError(RuntimeError):
    """All particle weights vanished after the likelihood update."""


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
        if self.gamma_shape <= 0 or self.gamma_scale <= 0:
            raise ValidationError("gamma shape and scale must be positive")
        if self.obs_noise_std <= 0:
            raise ValidationError("obs_noise_std must be positive")
        if self.switch_time < 1:
            raise ValidationError("switch_time must be >= 1")


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
        if self.num_particles < 1 or self.num_steps < 1 or self.num_mc_runs < 1:
            raise ValidationError("particles, steps and runs must be >= 1")
        if not self.methods:
            raise ValidationError("at least one resampling method is required")
        methods = tuple(self.methods)
        for m in methods + (self.baseline_method,):
            if m not in RESAMPLERS:
                raise ValidationError(f"unknown resampling method {m!r}")
        # each method draws from its own stream, keyed by the method's name
        repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
        if repeated:
            raise ValidationError(f"resampling method {repeated[0]!r} is listed twice")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One timestep of one Monte Carlo run."""

    run: int
    t: int
    x_true: float
    y_obs: float
    estimate: float
    sv: dict[str, float]


def state_transition(x_prev, t, u, params: ModelParams = ModelParams()):
    """Propagate the state one step; works elementwise on arrays."""
    return 1.0 + np.sin(params.omega * np.pi * t) + params.phi1 * x_prev + u


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


def _propagate_and_weigh(states, prior_weights, y_obs, t, rng, params):
    """Propagate and reweight: (weighted ParticleSet, its weights, the estimate)."""
    noise = gammas(rng, params.gamma_shape, params.gamma_scale, states.size)
    states = state_transition(states, t, noise, params)
    with np.errstate(divide="ignore"):
        logw = np.log(prior_weights) + _log_likelihood(y_obs, states, t, params)
    top = np.max(logw)
    if not np.isfinite(top):
        raise ParticleCollapseError(f"all particle weights vanished at step {t}")
    # no log weight is nan or +inf once the largest is finite, so the shifted
    # weights hold a 1 and their total is finite and at least 1
    w = np.exp(logw - top)
    w = w / w.sum()
    return ParticleSet(states, WeightVector(w)), w, float(states @ w)


def sir_step(p: ParticleSet, y_obs, t, method, rng: RngStream,
             params: ModelParams = ModelParams(), num_out=None):
    """One propagate-weight-resample step.

    Returns (new equally weighted ParticleSet, weighted-mean estimate before
    resampling, sampling variance of the resample counts).
    """
    if method not in RESAMPLERS:
        raise ValidationError(f"unknown resampling method {method!r}")
    n_out = len(p) if num_out is None else int(num_out)
    pset, _, estimate = _propagate_and_weigh(p.states, p.weights.weights, y_obs, t,
                                             rng, params)
    counts = RESAMPLERS[method](pset, n_out, rng)
    sv = sampling_variance(counts, pset.weights)
    new_states = pset.states[counts_to_indices(counts)]
    new_set = ParticleSet(new_states, WeightVector(np.full(n_out, 1.0 / n_out)))
    return new_set, estimate, sv


def simulate_truth(num_steps, rng: RngStream, params: ModelParams = ModelParams()):
    """One ground-truth trajectory and its observations, steps 1..num_steps."""
    xs = np.empty(num_steps)
    ys = np.empty(num_steps)
    x = 0.0
    for t in range(1, num_steps + 1):
        u = float(gammas(rng, params.gamma_shape, params.gamma_scale, 1)[0])
        x = float(state_transition(x, t, u, params))
        v = float(normals(rng, 1)[0]) * params.obs_noise_std
        xs[t - 1] = x
        ys[t - 1] = float(measurement(x, t, v, params))
    return xs, ys


def run_benchmark(config: BenchmarkConfig,
                  params: ModelParams = ModelParams()) -> list[BenchmarkRecord]:
    """Run the full comparison; one BenchmarkRecord per (run, step)."""
    root = RngStream(config.seed)
    records: list[BenchmarkRecord] = []
    for run in range(config.num_mc_runs):
        run_rng = root.spawn(run)
        try:
            records.extend(_run_single(run, run_rng, config, params))
        except ParticleCollapseError as e:
            raise ParticleCollapseError(f"run {run}: {e}") from e
    return records


def _run_single(run, run_rng, config, params):
    npart = config.num_particles
    truth_rng = run_rng.spawn(0)
    filter_rng = run_rng.spawn(1)
    baseline_rng = run_rng.spawn(2)
    method_rngs = {m: run_rng.spawn(3 + i) for i, m in enumerate(config.methods)}

    xs, ys = simulate_truth(config.num_steps, truth_rng, params)
    states = normals(filter_rng, npart)  # initial particles ~ N(0, 1)
    weights = np.full(npart, 1.0 / npart)

    out = []
    for t in range(1, config.num_steps + 1):
        pset, weights, estimate = _propagate_and_weigh(states, weights, ys[t - 1], t,
                                                       filter_rng, params)
        states = pset.states
        sv = {m: sampling_variance(RESAMPLERS[m](pset, npart, rng), pset.weights)
              for m, rng in method_rngs.items()}

        if config.resample_each_step:
            base_counts = RESAMPLERS[config.baseline_method](pset, npart, baseline_rng)
            states = states[counts_to_indices(base_counts)]
            weights = np.full(npart, 1.0 / npart)

        out.append(BenchmarkRecord(
            run=run, t=t, x_true=float(xs[t - 1]), y_obs=float(ys[t - 1]),
            estimate=estimate, sv=sv,
        ))
    return out


def aggregate_mean_sv(records) -> dict[tuple[int, str], float]:
    """Per-(timestep, method) mean sampling variance across runs."""
    sums: dict[tuple[int, str], float] = {}
    counts: dict[tuple[int, str], int] = {}
    for rec in records:
        for m, v in rec.sv.items():
            key = (rec.t, m)
            sums[key] = sums.get(key, 0.0) + v
            counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}
