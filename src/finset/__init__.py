"""Proportional integer partitioning, minimum-variance resampling, and a SIR benchmark."""

from .partition import (
    Allocation,
    ResidualVector,
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
from .resampling import (
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
)
from .rng import RngStream, gammas, normals
from .model import (
    BenchmarkConfig,
    BenchmarkResult,
    METHODS,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
