"""Every input the type layer accepts must either work or raise ValidationError.

One table: each row is a public constructor or function called with one bad
input. It must raise exactly ValidationError, not a TypeError, a bare
ValueError or a NumPy cast, with a message naming what was wrong, and warn
nothing on the way. A second table holds inputs that must work: each row
calls a function with an input it once refused or mishandled, and compares
the result with the same call on its usual form.
"""

import warnings

import numpy as np
import pytest

from finset import (
    RESAMPLERS,
    Allocation,
    BenchmarkConfig,
    ModelParams,
    ParticleSet,
    ResidualVector,
    RngStream,
    ValidationError,
    WeightVector,
    brute_force_partition,
    gammas,
    lmse_partition,
    normals,
    run_benchmark,
    sampling_variance,
    simulate_truth,
    sir_step,
    state_transition,
)
from finset.rng import uniform_rows

HALF = [0.5, 0.5]
PAST = 2**53 + 1  # one past the limit on every count: n, sizes, steps, particles, runs
# n*w floors to n - 1 units, and both residuals round to exactly 0.0: the
# residual CDF held no mass, and the last unit was drawn past its last bin
LOST_UNIT = ([0.5207222343025517, 0.47927776569744845], 8443287019856399)
NOT_REAL = {  # each used to be parsed, cast, or refused with a TypeError
    "str": ["0.5", "0.5"],
    "bytes": [b"0.5", b"0.5"],
    "timedelta64": np.array([1, 1], dtype="m8[s]"),
    "letter": ["a", "a"],
    "complex": [0.5 + 0j, 0.5],
    "complex array": np.array([0.5 + 1j, 0.5]),
    "str object": np.array(["0.5", 0.5], dtype=object),
    "dict": {"a": 1},
    "ragged": [[0.5], [0.25, 0.25]],
}


def _sir(**kwargs):
    args = dict(y_obs=0.5, t=3, method="systematic", rng=RngStream(0)) | kwargs
    return sir_step(ParticleSet([0.0, 1.0], HALF), **args)


CASES = [
    *[(f"WeightVector {k}", lambda v=v: WeightVector(v), "weights must be real numbers")
      for k, v in NOT_REAL.items()],
    *[(f"ParticleSet states {k}", lambda v=v: ParticleSet(v, HALF),
       "states must be real numbers") for k, v in NOT_REAL.items()],
    ("ParticleSet weights str", lambda: ParticleSet([0.0, 1.0], ["0.5", "0.5"]),
     "weights must be real numbers"),
    ("lmse_partition complex", lambda: lmse_partition(np.array([0.5 + 1j, 0.5]), 4),
     "weights must be real numbers"),
    *[(f"{name} str weights", lambda f=f: f(["0.5", "0.5"], 4, RngStream(0)),
       "weights must be real numbers") for name, f in RESAMPLERS.items()],
    ("ResidualVector str", lambda: ResidualVector(["0.1", "0.2"]),
     "residuals must be real numbers"),
    ("gammas str shape", lambda: gammas(RngStream(0), "3", 2.0, 1),
     "shape must be a real number, got '3'"),
    ("WeightVector int past float range", lambda: WeightVector([10**400, 1]),
     "weights must be real numbers within the float range"),
    ("Allocation str object", lambda: Allocation(np.array(["1", 2], dtype=object)),
     "sizes must be a non-empty 1-d sequence of integers"),
    ("Allocation str total", lambda: Allocation([1, 2], total="3"),
     "sizes sum to 3, declared total is '3'"),
    ("ModelParams omega str", lambda: ModelParams(omega="x"),
     "omega must be a real number, got 'x'"),
    ("ModelParams gamma_shape str", lambda: ModelParams(gamma_shape="3"),
     "gamma_shape must be a real number, got '3'"),
    ("BenchmarkConfig unhashable method", lambda: BenchmarkConfig(methods=[["msv"]]),
     r"methods\[0\] must name a resampling method, got \['msv'\]"),
    ("BenchmarkConfig list baseline", lambda: BenchmarkConfig(baseline_method=["msv"]),
     r"baseline_method must name a resampling method, got \['msv'\]"),
    ("BenchmarkConfig int methods", lambda: BenchmarkConfig(methods=5),
     r"methods must be a sequence of method names, not a int \(5\)"),
    ("sir_step list method", lambda: _sir(method=["x"]),
     r"method must name a resampling method, got \['x'\]"),
    ("sir_step str y_obs", lambda: _sir(y_obs="1"), "y_obs must be a real number, got '1'"),
    # arguments that used to fail on a missing attribute or a len()
    *[(f"{name} None rng", lambda f=f: f(HALF, 4, None),
       "rng must be an instance of RngStream, not NoneType")
      for name, f in RESAMPLERS.items() if name != "msv"],  # msv draws nothing
    ("systematic int rng", lambda: RESAMPLERS["systematic"](HALF, 4, 3),
     "rng must be an instance of RngStream, not int"),
    # msv draws nothing, but took any rng: a str gave counts
    ("msv str rng", lambda: RESAMPLERS["msv"](HALF, 4, "x"),
     "rng must be an instance of RngStream, not str"),
    # key + 1 wrapped mod 2**64: -1 replayed RngStream(0) and 2**64 gave key 0's child
    *[(f"spawn key {name}", lambda key=key: RngStream(0).spawn(key),
       rf"key must be an integer in \[0, 2\*\*64 - 2\], got {key}")
      for name, key in [("-1", -1), ("2**64 - 1", 2**64 - 1), ("2**64", 2**64)]],
    ("sir_step list p", lambda: sir_step([0.0, 1.0], 0.5, 3, "msv", RngStream(0)),
     "p must be an instance of ParticleSet, not list"),
    ("sir_step int rng", lambda: _sir(rng=7), "rng must be an instance of RngStream, not int"),
    ("sir_step str params", lambda: _sir(params="x"),
     "params must be an instance of ModelParams, not str"),
    ("run_benchmark None config", lambda: run_benchmark(None),
     "config must be an instance of BenchmarkConfig, not NoneType"),
    ("run_benchmark str params", lambda: run_benchmark(BenchmarkConfig(), params="x"),
     "params must be an instance of ModelParams, not str"),
    ("normals None rng", lambda: normals(None, 2),
     "rng must be an RngStream or a sequence of them, not NoneType"),
    ("normals int in streams", lambda: normals([RngStream(0), 5], 2),
     r"rng\[1\] must be an instance of RngStream, not int"),
    ("simulate_truth None rng", lambda: simulate_truth(3, None),
     "rng must be an RngStream or a sequence of them, not NoneType"),
    # counts past the limit: NumPy's "array is too big", or an OverflowError
    # from the uint64 counter, or (runs) minutes building one stream per run
    ("normals size past 2**53", lambda: normals(RngStream(0), PAST),
     rf"size must be at most 2\*\*53, got {PAST}"),
    ("next_uniforms past 2**53", lambda: RngStream(0).next_uniforms(PAST),
     rf"size must be at most 2\*\*53, got {PAST}"),
    ("uniform_rows past 2**53", lambda: uniform_rows([RngStream(0), RngStream(1)], PAST),
     rf"size must be at most 2\*\*53, got {PAST}"),
    ("gammas size past 2**53", lambda: gammas(RngStream(0), 2.5, 1.0, PAST),
     rf"size must be at most 2\*\*53, got {PAST}"),
    ("gammas uniforms past 2**53", lambda: gammas(RngStream(0), 2.0**70, 1.0, 1),
     r"shape 1.1805916207174113e\+21 and size 1 need more than 2\*\*53 uniforms"),
    ("gammas shape times size past 2**53", lambda: gammas(RngStream(0), 3, 1.0, 2**52),
     rf"shape 3 and size {2**52} need more than 2\*\*53 uniforms"),
    ("simulate_truth num_steps past 2**53", lambda: simulate_truth(PAST, RngStream(0)),
     rf"num_steps must be at most 2\*\*53, got {PAST}"),
    *[(f"BenchmarkConfig {name} past 2**53", lambda name=name: BenchmarkConfig(**{name: PAST}),
       rf"{name} must be at most 2\*\*53, got {PAST}")
      for name in ("num_particles", "num_steps", "num_mc_runs")],
    ("ParticleSet 2-d states", lambda: ParticleSet([[0.0, 1.0]], HALF), "states must be 1-d"),
    # the (R, M) rows were used unchecked: a TypeError, or NumPy's ragged ValueError
    ("sampling_variance str weight rows",
     lambda: sampling_variance(np.array([[1, 2]]), [["a", "b"]]),
     "weights must be real numbers"),
    ("sampling_variance ragged weight rows",
     lambda: sampling_variance(np.array([[1, 1], [1, 1]]), [[0.5], [0.5, 0.5]]),
     "weights must be real numbers"),
    ("sampling_variance str count rows",
     lambda: sampling_variance(np.array([["1", "1"]]), [HALF]), "counts must be real numbers"),
    # nested-list rows took the one-vector path, whose message named 1-d sizes
    ("sampling_variance ragged count rows",
     lambda: sampling_variance([[1, 1], [2]], [HALF, HALF]),
     r"counts must be real numbers, in one vector or in \(R, M\) rows"),
    # the mean over no columns was nan, through a RuntimeWarning
    ("sampling_variance empty count rows",
     lambda: sampling_variance(np.zeros((2, 0), int), np.zeros((2, 0))),
     r"count rows must be non-empty, got shape \(2, 0\)"),
    # count and weight rows that one vector refuses gave a number: 4.0, 0.25, 0.0,
    # 2.0e31 past 2**53, and nan
    ("sampling_variance negative count row",
     lambda: sampling_variance([[1, 1], [-1, 3]], [HALF, HALF]),
     "count row 1: negative size -1 at index 0"),
    ("sampling_variance non-integer count row",
     lambda: sampling_variance([[0.5, 1.5]], [HALF]),
     "count row 0: size 0.5 at index 0 is not an integer"),
    ("sampling_variance all-zero count row",
     lambda: sampling_variance([[1, 0], [0, 0]], [HALF, HALF]),
     r"count row 1: sizes must sum to a positive integer at most 2\*\*53"),
    ("sampling_variance count row past 2**53",
     lambda: sampling_variance([[1, 0], [PAST, 0]], [HALF, HALF]),
     rf"count row 1: size {PAST} at index 0 is past 2\*\*53"),
    ("sampling_variance nan weight row",
     lambda: sampling_variance([[1, 1]], [[0.5, np.nan]]),
     "non-finite weight nan at row 0, index 1"),
    ("sampling_variance negative weight row",
     lambda: sampling_variance([[1, 1]], [[1.5, -0.5]]),
     "negative weight -0.5 at row 0, index 1"),
    ("residual unit lost near 2**53", lambda: RESAMPLERS["residual"](*LOST_UNIT, RngStream(0)),
     "n = 8443287019856399 is past float precision for these weights: the floors leave 1 "
     "units, and every residual rounds to 0"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises_validation_error_and_warns_nothing(call, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=message) as info:
            call()
    assert type(info.value) is ValidationError
    assert caught == []


WORKS = [  # (id, call on the unusual input, the same call on the usual one)
    # a sequence of streams that can be read only once: the check used to
    # consume it, and the draw then raised TypeError on its len()
    *[(f"{name} generator of streams", lambda f=f: f(g for g in [RngStream(0), RngStream(1)]),
       lambda f=f: f([RngStream(0), RngStream(1)]))
      for name, f in [("normals", lambda rngs: normals(rngs, 2)),
                      ("uniform_rows", lambda rngs: uniform_rows(rngs, 3)),
                      ("gammas integer shape", lambda rngs: gammas(rngs, 3, 2.0, 2)),
                      ("gammas fractional shape", lambda rngs: gammas(rngs, 2.5, 2.0, 2)),
                      ("simulate_truth", lambda rngs: np.array(simulate_truth(2, rngs)))]],
    # nested-list count rows took the one-vector path and were refused
    ("sampling_variance nested-list rows",
     lambda: sampling_variance([[1, 1], [2, 0]], [HALF, HALF]),
     lambda: sampling_variance(np.array([[1, 1], [2, 0]]), np.array([HALF, HALF]))),
    # the boundaries of the count-row checks: one unit in a row, whole floats
    ("sampling_variance one-unit rows",
     lambda: sampling_variance([[1, 0], [0.0, 1.0]], [HALF, [0.0, 1.0]]),
     lambda: np.array([0.25, 0.0])),
    ("msv None rng", lambda: RESAMPLERS["msv"](HALF, 4, None).sizes,
     lambda: RESAMPLERS["msv"](HALF, 4, RngStream(0)).sizes),
    # a list times a float raised a bare TypeError
    ("state_transition list", lambda: state_transition([0.0, 1.0], 1, 0.0),
     lambda: state_transition(np.array([0.0, 1.0]), 1, 0.0)),
    # one bin has one composition for any n, but it was built as int32
    ("brute_force_partition one bin at 2**31",
     lambda: brute_force_partition([1.0], 2**31)[0].sizes, lambda: np.array([2**31])),
    ("brute_force_partition one bin at 2**53",
     lambda: brute_force_partition([1.0], 2**53)[0].sizes, lambda: np.array([2**53])),
]


@pytest.mark.parametrize("call, usual", [c[1:] for c in WORKS], ids=[c[0] for c in WORKS])
def test_accepted_input_works_as_its_usual_form(call, usual):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = call()
    want = usual()
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert caught == []


def test_msv_keeps_the_unit_residual_refuses():
    w, n = LOST_UNIT
    counts = RESAMPLERS["msv"](w, n).sizes
    assert counts.tolist() == [4396607281837357, 4046679738019042]
    assert counts.sum() == n
