import dataclasses
import tracemalloc

import numpy as np
import pytest

import finset
from finset import (RESAMPLERS, Allocation, ParticleSet, ResidualVector, RngStream, WeightVector,
                    residuals)
from finset.partition import _Rows

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


# What each value type holds after one call of every scheme: exactly its declared
# fields, so that a cache added to a value type is a visible edit here too.
def test_value_types_hold_only_their_fields():
    w = WeightVector([0.46, 0.34, 0.20])
    population = _Rows(np.array([[0.2, 0.3, 0.5]]), 5).populations()[0]  # a model-built row
    made = [w, population, residuals(w, 5)]
    for fn in RESAMPLERS.values():
        for held in (w, population):
            p = ParticleSet([0.0, 1.0, 2.0], held)
            made += [p, fn(held, 5, RngStream(0)), fn(p, 5, RngStream(0))]
    assert {type(v) for v in made} == {WeightVector, ParticleSet, ResidualVector, Allocation}
    for value in made:
        assert set(vars(value)) == {f.name for f in dataclasses.fields(value)}, value


@pytest.mark.parametrize("name", RESAMPLERS)
def test_held_weight_vector_keeps_no_array(name):
    # a caller who holds a WeightVector holds its weights: a call leaves nothing
    # M-sized alive beside them (a cached CDF kept one M-array per population)
    m = 2**18
    raw = np.random.default_rng(7).lognormal(0.0, 1.0, m)
    w = WeightVector(raw / raw.sum())
    tracemalloc.start()
    try:
        RESAMPLERS[name](w, m, RngStream(5))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 8 * m / 100, kept / (8 * m)
