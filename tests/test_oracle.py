"""A fixed-seed statistical oracle for the random schemes: right totals in the right bins.

Every other check passes any count vector of length M, entries >= 0 and sum
n. These check the first two moments given the weights (Douc & Cappe,
"Comparison of resampling schemes for particle filtering", ISPA 2005). With
r = frac(n*w), L = sum Floor(n*w) and R = n - L, every scheme has E[N] = n*w
and a count variance of

- multinomial: n*w*(1 - w);
- residual: R*rbar*(1 - rbar), rbar = r/R, which is r*(1 - r/R);
- systematic: r*(1 - r),

so the mean sampling variance E[sv] is the mean of those variances. msv
draws nothing: its counts N are n*w rounded to a neighbouring integer, so its
bias N - n*w = d has |d| < 1 and its sampling variance is (1/M) sum d**2,
the least of any count vector given the weights.
"""

import numpy as np
import pytest

from finset import model, resampling
from finset.partition import WeightVector
from finset.resampling import RESAMPLERS, ParticleSet, sampling_variance
from finset.rng import RngStream

Z = 5.0
SCHEMES = ("multinomial", "residual", "systematic")


def count_variance(name, w, n):
    nw = n * w
    if name == "multinomial":
        return nw * (1.0 - w)
    r = nw - np.floor(nw)
    if name == "residual":
        return r * (1.0 - r / r.sum()) if r.sum() > 0 else r
    return r * (1.0 - r)


def oracle_failures(name, w, n, counts):
    """What the (K, M) count rows drawn from weights w get wrong, as messages."""
    k = len(counts)
    var = count_variance(name, w, n)
    failures = []
    if np.any(counts[:, w == 0.0]):
        failures.append("a zero-weight particle got a copy")
    # The sum of K counts is off n*w*K by a z-score; the 1 added to its
    # variance keeps a bin that is rarely drawn from reading a few draws as
    # many standard errors.
    z = (counts.sum(axis=0) - k * n * w) / np.sqrt(k * var + 1.0)
    if np.abs(z).max() > Z:
        m = int(np.abs(z).argmax())
        failures.append(f"bin {m}: mean count {counts[:, m].mean()} for n*w {n * w[m]}, z {z[m]}")
    sv = sampling_variance(counts, np.broadcast_to(w, counts.shape))
    z_sv = (sv.mean() - var.mean()) / (sv.std(ddof=1) / np.sqrt(k))
    if abs(z_sv) > Z:
        failures.append(f"mean sv {sv.mean()} for E[sv] {var.mean()}, z {z_sv}")
    return failures


def draw(name, p, n, k, seed):
    rng = RngStream(seed)
    return np.array([RESAMPLERS[name](p, n, rng).sizes for _ in range(k)])


def model_population():
    """A run's weighted population after one SIR step, as run_benchmark builds it."""
    rngs = [RngStream(4).spawn(r) for r in range(3)]
    states = model.normals(rngs, 100)
    states, _, stored, _, live = model._propagate_and_weigh(
        states, np.full((3, 100), 0.01), np.array([2.0, 5.0, 9.0]), 5, rngs, model.ModelParams())
    assert live == 3
    row = WeightVector._rows(stored, 100)._each()[1]
    return ParticleSet._trusted(states[1], row), stored[1], 100


def caller_population(kind):
    g = np.random.default_rng(17)
    if kind == "dirichlet":
        raw, n = g.dirichlet(np.full(50, 0.5)), 50
    elif kind == "heavy tails and zeros":
        raw, n = g.lognormal(0.0, 3.0, 40) * (g.random(40) < 0.7), 97
    else:  # "M = 1e4"
        raw, n = g.lognormal(0.0, 0.5, 10_000), 10_000
    wv = WeightVector(raw / raw.sum())
    return wv, wv.weights, n


POPULATIONS = {
    "model-built": model_population,
    **{kind: (lambda kind=kind: caller_population(kind))
       for kind in ("dirichlet", "heavy tails and zeros", "M = 1e4")},
}


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("population", POPULATIONS)
def test_means_match_closed_forms(population, name):
    p, w, n = POPULATIONS[population]()
    k = 200 if n == 10_000 else 2000
    counts = draw(name, p, n, k, seed=len(population))
    assert oracle_failures(name, w, n, counts) == []


def shift_one_copy(counts):
    """Right totals, wrong bins: one copy of each row's fullest bin moves to the next bin."""
    out = counts.copy()
    rows = np.arange(len(out))
    top = out.argmax(axis=1)
    out[rows, top] -= 1
    out[rows, (top + 1) % out.shape[1]] += 1
    return out


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("population", ["model-built", "dirichlet"])
def test_oracle_fails_a_copy_in_the_wrong_bin(population, name):
    p, w, n = POPULATIONS[population]()
    counts = draw(name, p, n, 2000, seed=3)
    assert oracle_failures(name, w, n, counts) == []
    assert oracle_failures(name, w, n, shift_one_copy(counts)) != []


@pytest.mark.parametrize("population", POPULATIONS)
def test_msv_bias_below_one_and_sv_its_mean_square(population):
    p, w, n = POPULATIONS[population]()
    rng = RngStream(1)
    counts = RESAMPLERS["msv"](p, n, rng).sizes
    assert rng.draws == 0
    assert np.array_equal(counts, RESAMPLERS["msv"](p, n, RngStream(2)).sizes)
    d = counts - n * w
    assert np.all(np.abs(d) < 1.0)
    assert sampling_variance(counts, w) == pytest.approx(np.mean(d * d), rel=1e-12, abs=0)
    # so does msv's row kernel, row by row
    rows = WeightVector._rows(np.stack([w, w[::-1]]), n)
    got = resampling._ROW_KERNELS[resampling.msv_resample](rows, n)
    assert np.array_equal(got[0], counts)
    assert np.all(np.abs(got - n * rows.weights) < 1.0)
