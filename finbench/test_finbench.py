"""Tests of the benchmark harness itself, on workloads shrunk to run in seconds."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from finbench import harness
from finbench.checks import Checker
from finbench.tracer import Tracer
from finbench.workloads import PartitionVerify, ResampleLarge, SirDefault

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def keep_finset_modules():
    """The harness re-imports finset; give other tests their modules back."""
    def finset_modules():
        return {k: v for k, v in sys.modules.items() if k == "finset" or k.startswith("finset.")}

    saved = finset_modules()
    yield
    for name in finset_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def tiny(name, tmp_path):
    return {
        "sir_default": lambda: SirDefault(tmp_path, particles=20, steps=4, runs=3),
        "resample_large": lambda: ResampleLarge(m=2000),
        "partition_verify": lambda: PartitionVerify(m_max=60, m_points=3, ratio_points=2),
    }[name]()


WORKLOADS = ("sir_default", "resample_large", "partition_verify")


def test_checker_counts_bad_vectors_as_failures():
    c = Checker()
    # The systematic phantom-particle shape: M+1 counts for M=3 particles.
    assert not c.counts(np.array([2, 1, 1, 1]), 3, 5, "phantom")
    assert not c.counts(np.array([2, 1, 1]), 3, 5, "short sum")
    assert not c.counts(np.array([3, -1, 3]), 3, 5, "negative")
    assert len(c.failures) == 3
    assert c.counts(np.array([2, 2, 1]), 3, 5, "good")
    assert len(c.failures) == 3


def test_phantom_particle_fails_the_op_not_the_run():
    class Phantom(ResampleLarge):
        def setup(self, fin, seed):
            super().setup(fin, seed)
            table = fin.resampling.RESAMPLERS
            systematic = table["systematic"]

            def with_phantom(p, n, rng):
                sizes = systematic(p, n, rng).sizes
                return fin.resampling.ResampleCounts(
                    fin.partition.Allocation(np.append(sizes, 0), n))

            table["systematic"] = with_phantom

    report = harness.run(Phantom(m=500), seed=3, seconds=0, trace=False)
    passes = report.record["samples"]["untraced_passes"]
    assert report.failed == 2 * passes  # one systematic call per input array
    assert not report.result()["correct"]
    assert any("501" in f for f in report.failures)


def test_cli_error_exit_counts_as_failed_op(tmp_path):
    # --particles 0 makes finset benchmark exit 2 (validation error).
    report = harness.run(SirDefault(tmp_path, particles=0, steps=2, runs=1), seed=1,
                         seconds=0, trace=False)
    assert report.attempted == 1 + report.record["samples"]["untraced_passes"]
    assert report.failed == report.attempted
    assert any("exited 2" in f for f in report.failures)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    plain = harness.run(tiny(name, tmp_path), seed=7, seconds=0, trace=False)
    traced = harness.run(tiny(name, tmp_path), seed=7, seconds=0, trace=True)
    assert plain.failures == [] and traced.failures == []
    assert plain.result()["correct"] and traced.result()["correct"]
    assert plain.digest == traced.digest


@pytest.mark.parametrize("name", WORKLOADS)
def test_count_metrics_repeat_exactly(name, tmp_path):
    def counts():
        report = harness.run(tiny(name, tmp_path), seed=11, seconds=0, trace=True)
        return {k: v for k, (v, unit) in report.metrics.items() if unit in ("count", "bytes")}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_sir_uniforms_match_documented_consumption(tmp_path):
    report = harness.run(tiny("sir_default", tmp_path), seed=5, seconds=0, trace=True)
    m = {k: v for k, (v, _) in report.metrics.items()}
    steps = 3 * 4
    assert m["model.steps"] == steps
    assert m["resampling.multinomial_uniforms"] == 20 * steps
    assert m["resampling.systematic_uniforms"] == 2 * steps  # method and baseline
    assert m["resampling.rsr_uniforms"] == steps
    assert m["resampling.msv_uniforms"] == 0
    assert 0 < m["resampling.residual_uniforms"] < 20 * steps


def test_tracer_restores_every_wrapped_name():
    fin = harness.import_finset()

    def snapshot():
        return ({m: dict(vars(getattr(fin, m))) for m in vars(fin)},
                dict(fin.resampling.RESAMPLERS),
                {cls: dict(vars(cls)) for cls in (fin.rng.RngStream, fin.partition.WeightVector,
                                                  fin.partition.Allocation,
                                                  fin.resampling.ParticleSet)})

    before = snapshot()
    tracer = Tracer()
    tracer.install(fin)
    assert fin.model.gammas is not before[0]["model"]["gammas"]
    tracer.restore()
    assert snapshot() == before


def test_result_carries_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result = harness.run(tiny("partition_verify", tmp_path), seed=1, seconds=0,
                             trace=trace).result()
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            d["name"]: d["unit"] for d in declared}


def test_layer_self_times_account_for_traced_wall(tmp_path):
    report = harness.run(tiny("sir_default", tmp_path), seed=2, seconds=0, trace=True)
    shares = sum(v for k, (v, unit) in report.metrics.items()
                 if k.endswith(".self_pct"))
    assert shares == pytest.approx(100.0, rel=1e-9)
