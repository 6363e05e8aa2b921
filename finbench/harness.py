"""Measurement loop, metrics and run record for one workload.

A run sets up several times and reports the median set-up time, runs one
untimed verification, then repeats passes over the workload's operations
until ``seconds`` have elapsed. With tracing on, traced and untraced passes
alternate, so the tracer's overhead is measured in the same run.

On a shared host the machine's speed can drift by a factor of two, over
seconds and over minutes. So while an untraced pass runs, a
speed meter times the workload's probe (a short fixed computation of the
same character as the workload that uses no finset code) every 50 ms, and
that probe time is taken back out of the pass. The end-to-end
``pass_in_probes`` is the median over passes of the pass time divided by
the mean probe time during that pass: the cost of a pass in units of work
the machine did at the same moments. A change to finset moves it; a change
in the machine's speed mostly cancels. The raw times stay in the run record.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import THREAD_PINS
from .checks import Checker
from .tracer import SCHEMES, Tracer
from .workloads import PartitionVerify, ResampleLarge, SirDefault, cache_bytes

SETUP_REPS = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Seconds between the speed meter's samples.
METER_INTERVAL_S = 0.05

WORKLOADS = {
    "sir_default": lambda out_dir: SirDefault(out_dir),
    "resample_large": lambda out_dir: ResampleLarge(),
    "partition_verify": lambda out_dir: PartitionVerify(),
}


@dataclass
class Report:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    record: dict = field(default_factory=dict)
    digest: str = ""
    tracer: Tracer | None = None

    def result(self) -> dict:
        """The result line: correctness, op counts and every metric with its unit."""
        return {"correct": self.failed == 0 and not self.failures,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def import_finset() -> SimpleNamespace:
    """Import finset afresh, as a new process would, and return its modules."""
    for name in [n for n in sys.modules if n == "finset" or n.startswith("finset.")]:
        del sys.modules[name]
    importlib.import_module("finset")
    return SimpleNamespace(**{m: importlib.import_module(f"finset.{m}")
                              for m in ("cli", "model", "partition", "resampling", "rng")})


def run(workload, seed: int, seconds: float, trace: bool) -> Report:
    setup_s: list[float] = []

    def setup():
        start = time.perf_counter()
        fin = import_finset()
        workload.setup(fin, seed)
        setup_s.append(time.perf_counter() - start)
        return fin

    fin = setup()
    checker = Checker()
    attempted, failed = workload.verify(checker)
    refs: dict[int, bytes] = {}
    op_s: dict[str, list[float]] = {}
    plain_s: list[float] = []
    pass_probes: list[float] = []
    traced_s: list[float] = []
    tracer = Tracer() if trace else None
    meter = SpeedMeter(workload.probe)

    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and len(plain_s) > len(traced_s)
        if use_tracer:
            tracer.install(fin)
        else:
            meter.start()
        try:
            pass_s = 0.0
            for k, op in enumerate(workload.ops()):
                call = tracer.wrap("harness.op", op.run) if use_tracer else op.run
                attempted += 1
                before = len(checker.failures)
                probing = meter.probing_s
                meter.in_op = True
                start = time.perf_counter()
                try:
                    out = call()
                except Exception as e:  # an op that raises is a failed op, not a crash
                    meter.in_op = False
                    pass_s += time.perf_counter() - start - (meter.probing_s - probing)
                    checker.expect(False, f"{op.label}: {type(e).__name__}: {e}")
                    failed += 1
                    continue
                end = time.perf_counter()
                meter.in_op = False
                elapsed = end - start - (meter.probing_s - probing)
                pass_s += elapsed
                if not use_tracer:
                    op_s.setdefault(op.label, []).append(elapsed)
                fp = hashlib.sha256(op.check(checker, out)).digest()
                del out
                checker.expect(refs.setdefault(k, fp) == fp,
                               f"{op.label}: output differs from first pass")
                failed += len(checker.failures) > before
        finally:
            if use_tracer:
                tracer.restore()
            else:
                meter.stop()
        if use_tracer:
            traced_s.append(pass_s)
        else:
            plain_s.append(pass_s)
            # One sample after the pass, so even a pass shorter than the
            # meter's interval has one.
            probes = meter.samples + [workload.probe()]
            pass_probes.append(pass_s / statistics.fmean(probes))
        if time.perf_counter() >= deadline and len(plain_s) >= (
                MIN_TRACED_PASSES if trace else MIN_PASSES) and (
                not trace or len(traced_s) >= MIN_TRACED_PASSES):
            break
        if len(setup_s) < SETUP_REPS:
            # Spread the set-up repetitions over the run, so that their
            # median does not hang on the machine's speed at one moment.
            fin = setup()
    while len(setup_s) < SETUP_REPS:
        setup()

    digest = hashlib.sha256(b"".join(refs[k] for k in sorted(refs))).hexdigest()
    samples = {"setup_reps": len(setup_s), "untraced_passes": len(plain_s),
               "traced_passes": len(traced_s), "speed_samples": meter.total}
    if trace:
        summary = tracer.summary()
        metrics = per_layer_metrics(summary, tracer.counts, workload, plain_s, traced_s)
    else:
        metrics = {
            "pass_in_probes": (statistics.median(pass_probes), "probes"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "samples": samples,
        "setup_s": setup_s, "pass_s": plain_s, "traced_pass_s": traced_s,
        "pass_in_probes": pass_probes,
        "op_s": {label: latency(v) for label, v in op_s.items()},
        "inputs": workload.describe(), "output_digest": digest,
        "failures": checker.failures[:50],
    }
    if trace:
        record["spans"] = {name: {k: v for k, v in s.items() if k != "durations"}
                           for name, s in summary.items()}
        record["per_call_s"] = per_call_percentiles(summary)
    return Report(attempted, failed, checker.failures, metrics, record, digest, tracer)


class SpeedMeter:
    """Samples the machine's speed while a pass runs.

    A SIGALRM handler, which runs in the main thread between bytecodes, times
    the workload's probe every ``METER_INTERVAL_S``. Probe time that falls
    inside an operation is tallied in ``probing_s`` so the caller can take
    it back out of the operation's time.
    """

    def __init__(self, probe):
        self.probe = probe
        self.samples: list[float] = []
        self.in_op = False
        self.probing_s = 0.0
        self.total = 0

    def _tick(self, signum, frame):
        spent = self.probe()
        self.samples.append(spent)
        self.total += 1
        if self.in_op:
            self.probing_s += spent

    def start(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL_S, METER_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def latency(durations: list[float]) -> dict:
    """Sample count, fastest, median, and the highest of the usual percentiles
    that has at least ten samples beyond it (None when there are too few)."""
    out = {"samples": len(durations), "best_s": min(durations),
           "median_s": statistics.median(durations), "tail_percentile": None, "tail_s": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(durations) * (100.0 - q) / 100.0 >= 10:
            out.update(tail_percentile=q, tail_s=float(np.percentile(durations, q)))
            break
    return out


def per_call_percentiles(summary: dict) -> dict:
    """Per-call latency of each resampler in the traced passes."""
    return {name: latency(s["durations"]) for name, s in summary.items()
            if name.startswith("resampling.") and name[len("resampling."):] in SCHEMES}


def per_layer_metrics(summary: dict, counts, workload, plain_s, traced_s) -> dict:
    """Layer metrics from the traced passes.

    Times are shares of the traced wall time, in percent, so that a layer a
    workload never enters reads 0% rather than a constant 0 s; the wall time
    itself is ``trace.pass_s``. Counts are per pass and repeat exactly,
    because every pass repeats the same operations on the same inputs.
    """
    passes = len(traced_s)
    wall = summary.get("harness.op", {}).get("incl_s", 0.0) or 1e-300
    layer_self: dict[str, float] = {}
    for name, s in summary.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s["self_s"]

    def pct(seconds):
        return (100.0 * seconds / wall, "%")

    def incl(name):
        return pct(summary.get(name, {}).get("incl_s", 0.0))

    def calls(name):
        return (summary.get(name, {}).get("calls", 0) // passes, "count")

    def count(key):
        return (counts[key] // passes, "count")

    steps = counts["model.steps"] // passes
    builds = calls("partition.WeightVector")[0] + calls("partition.Allocation")[0]
    draw_calls = calls("rng.next_uniform")[0] + calls("rng.next_uniforms")[0]
    uniforms = count("rng.uniforms_drawn")[0]
    m = {
        "trace.pass_s": (statistics.median(traced_s), "s"),
        "trace_overhead": (statistics.median(traced_s) / statistics.median(plain_s), "ratio"),
        "harness.self_pct": pct(layer_self.get("harness", 0.0)),
        "cli.self_pct": pct(layer_self.get("cli", 0.0)),
        "cli.bytes_out": (getattr(workload, "bytes_out", 0) if "cli.main" in summary else 0,
                          "bytes"),
        "model.self_pct": pct(layer_self.get("model", 0.0)),
        "model.run_benchmark_pct": incl("model.run_benchmark"),
        "model.simulate_truth_pct": incl("model.simulate_truth"),
        "model.steps": (steps, "count"),
        "rng.self_pct": pct(layer_self.get("rng", 0.0)),
        "rng.gammas_pct": incl("rng.gammas"),
        "rng.gammas_calls": calls("rng.gammas"),
        "rng.normals_pct": incl("rng.normals"),
        "rng.normals_calls": calls("rng.normals"),
        "rng.next_uniform_calls": calls("rng.next_uniform"),
        "rng.next_uniforms_calls": calls("rng.next_uniforms"),
        "rng.uniforms_drawn": (uniforms, "count"),
        "rng.uniforms_per_call": (uniforms / draw_calls if draw_calls else 0.0, "uniforms/call"),
        "resampling.self_pct": pct(layer_self.get("resampling", 0.0)),
    }
    for scheme in SCHEMES:
        m[f"resampling.{scheme}_pct"] = incl(f"resampling.{scheme}")
        m[f"resampling.{scheme}_calls"] = calls(f"resampling.{scheme}")
        m[f"resampling.{scheme}_uniforms"] = count(f"resampling.{scheme}_uniforms")
    m.update({
        "resampling.sampling_variance_pct": incl("resampling.sampling_variance"),
        "resampling.counts_to_indices_pct": incl("resampling.counts_to_indices"),
        "resampling.particleset_builds": calls("resampling.ParticleSet"),
        "partition.self_pct": pct(layer_self.get("partition", 0.0)),
        "partition.lmse_partition_pct": incl("partition.lmse_partition"),
        "partition.lmse_partition_calls": calls("partition.lmse_partition"),
        "partition.weightvector_pct": incl("partition.WeightVector"),
        "partition.weightvector_builds": calls("partition.WeightVector"),
        "partition.allocation_pct": incl("partition.Allocation"),
        "partition.allocation_builds": calls("partition.Allocation"),
        "partition.validations_per_step": (builds / steps if steps else 0.0, "builds/step"),
        "partition.check_local_optimality_pct": incl("partition.check_local_optimality"),
        "partition.mse_pct": incl("partition.mse"),
    })
    return m


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown",
            "python": platform.python_version(), "numpy": np.__version__,
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
            "git_revision": git_revision(Path(__file__).resolve().parents[1])}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["l2_bytes_per_core"] = cache_bytes(2)
    info["l3_bytes"] = cache_bytes(3)
    return info


def git_revision(root: Path) -> str:
    """HEAD's commit from the checkout's .git, without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
