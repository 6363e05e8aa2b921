"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. All randomness is seeded, so the suite is fully deterministic.
"""

import time

import numpy as np

from finset.cli import main
from finset.model import BenchmarkConfig, aggregate_mean_sv, run_benchmark
from finset.partition import (
    WeightVector,
    brute_force_partition,
    check_local_optimality,
    check_theory1_bound,
    lmse_partition,
    mse,
)
from finset.resampling import (
    RESAMPLERS,
    msv_resample,
    multinomial_resample,
    sampling_variance,
)
from finset.rng import RngStream


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"{name}{suffix}"


def _random_weights(rng, m):
    raw = rng.random(m) + 1e-15
    return raw / raw.sum()


def test_criterion_1_oracle_optimality():
    """Partition MSE equals the brute-force minimum on all small instances."""
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for m in range(1, 6):
        for n in range(1, 13):
            for _ in range(1000):
                w = _random_weights(rng, m)
                got = mse(lmse_partition(w, n), w)
                _, best = brute_force_partition(w, n)
                worst = max(worst, got - best)
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: oracle optimality on M in [1,5], n in [1,12]",
        worst <= 1e-12 and elapsed < 60,
        f"max excess {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_unit_bound():
    """|size - n*w| < 1 on 1e5 random instances up to M=200, n=1e4."""
    rng = np.random.default_rng(1002)
    ms = rng.integers(1, 201, size=100_000)
    ns = rng.integers(1, 10_001, size=100_000)
    start = time.monotonic()
    ok = True
    for m, n in zip(ms, ns):
        w = WeightVector(_random_weights(rng, int(m)))
        if not check_theory1_bound(lmse_partition(w, int(n)), w):
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: strict unit bound on 1e5 random instances",
        ok and elapsed < 30,
        f"{elapsed:.1f}s",
    )


def test_criterion_3_exchange_stability():
    """No single-unit transfer improves the partition on large instances."""
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        w = WeightVector(_random_weights(rng, 100))
        if not check_local_optimality(lmse_partition(w, 100), w):
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: exchange stability on 1e3 instances at M=100, n=100",
        ok and elapsed < 10,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_msv_dominance():
    """MSV sampling variance never exceeds any other scheme's, pointwise."""
    rng = np.random.default_rng(1004)
    others = ("multinomial", "residual", "systematic", "rsr")
    violations = 0
    for trial in range(10_000):
        m = int(rng.integers(2, 101))
        n = int(rng.integers(1, 2 * m + 1))
        w = WeightVector(_random_weights(rng, m))
        best = sampling_variance(msv_resample(w, n), w)
        for name in others:
            sv = sampling_variance(RESAMPLERS[name](w, n, RngStream(trial)), w)
            if best > sv + 1e-12:
                violations += 1
    _report(
        "criterion 4: MSV dominance over 1e4 random instances",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_5_benchmark_ordering():
    """Default benchmark reproduces the qualitative sampling-variance ordering."""
    start = time.monotonic()
    cfg = BenchmarkConfig(num_particles=100, num_steps=60, num_mc_runs=100, seed=2024)
    result = run_benchmark(cfg)
    elapsed = time.monotonic() - start

    agg = aggregate_mean_sv(result)
    steps = sorted({t for t, _ in agg})
    msv_min_everywhere = all(
        agg[(t, "msv")] < min(agg[(t, m)] for m in cfg.methods if m != "msv")
        for t in steps
    )
    overall = {m: np.mean([agg[(t, m)] for t in steps]) for m in cfg.methods}
    ordering = overall["multinomial"] > overall["residual"] > overall["msv"]
    sys_rsr_close = abs(overall["systematic"] - overall["rsr"]) <= 0.2 * max(
        overall["systematic"], overall["rsr"]
    )
    _report(
        "criterion 5: benchmark SV ordering (100 particles, 60 steps, 100 runs)",
        msv_min_everywhere and ordering and sys_rsr_close and elapsed < 60,
        f"means mult={overall['multinomial']:.3f} res={overall['residual']:.3f} "
        f"sys={overall['systematic']:.3f} rsr={overall['rsr']:.3f} "
        f"msv={overall['msv']:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_cli_determinism(tmp_path):
    """Every command rerun with identical argv+seed emits identical bytes."""
    cases = [
        ["partition", "--weights", "0.46,0.34,0.20", "--n", "5"],
        ["resample", "--method", "multinomial", "--weights", "0.1,0.2,0.3,0.4",
         "--n", "50", "--seed", "13"],
        ["resample", "--method", "rsr", "--weights", "0.1,0.2,0.3,0.4",
         "--n", "50", "--seed", "13"],
        ["benchmark", "--steps", "8", "--particles", "20", "--runs", "2",
         "--seed", "13"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        f1 = tmp_path / f"{i}_a.csv"
        f2 = tmp_path / f"{i}_b.csv"
        assert main(argv + ["--output", str(f1)]) == 0
        assert main(argv + ["--output", str(f2)]) == 0
        if f1.read_bytes() != f2.read_bytes():
            ok = False
    _report("criterion 6: byte-identical CLI reruns", ok)


def test_criterion_7_multinomial_unbiasedness():
    """Empirical multinomial frequencies sit within 3 standard errors."""
    w = np.array([0.05, 0.1, 0.15, 0.2, 0.5])
    wv = WeightVector(w)
    n = 100_000
    seeds = 100
    freqs = np.zeros((seeds, len(w)))
    for s in range(seeds):
        counts = multinomial_resample(wv, n, RngStream(5000 + s))
        freqs[s] = counts.sizes / n
    mean_freq = freqs.mean(axis=0)
    se = np.sqrt(w * (1 - w) / (n * seeds))
    max_z = float(np.max(np.abs(mean_freq - w) / se))
    _report(
        "criterion 7: multinomial unbiasedness at n=1e5 over 100 seeds",
        max_z <= 3.0,
        f"max |z| = {max_z:.2f}",
    )
