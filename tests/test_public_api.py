import finset

# Every public name, so that adding or removing one is a visible edit here.
PUBLIC = {
    # submodules
    "model", "partition", "resampling", "rng",
    # partition
    "Allocation", "ResidualVector", "ValidationError", "WeightVector",
    "brute_force_partition", "check_local_optimality", "check_theory1_bound",
    "lmse_partition", "mae", "mse", "residuals",
    # resampling
    "RESAMPLERS", "ParticleSet", "counts_to_indices", "msv_resample",
    "multinomial_resample", "residual_resample", "rsr_resample", "sampling_variance",
    "systematic_resample",
    # rng
    "RngStream", "gammas", "normals",
    # model
    "BenchmarkConfig", "BenchmarkResult", "METHODS", "ModelParams",
    "ParticleCollapseError", "aggregate_mean_sv", "likelihood", "measurement",
    "run_benchmark", "simulate_truth", "sir_step", "state_transition",
}


def test_public_names_are_pinned():
    assert len(finset.__all__) == len(set(finset.__all__))
    assert set(finset.__all__) == PUBLIC
    assert all(hasattr(finset, name) for name in PUBLIC)
