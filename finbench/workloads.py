"""The three benchmark workloads: their inputs, their operations and their checks.

Each workload is a closed loop: one caller issues the next operation only
after the previous one returns. ``setup`` builds the inputs from the seed and
warms the code path; ``verify`` runs checks whose cost must stay out of the
timed region; ``ops`` lists the timed operations of one pass, each with a
check that returns a fingerprint of the operation's output.

``probe`` times a short fixed computation (about 2 ms) of the same character
as the workload that uses no finset code: a change to finset cannot move it,
only the machine's speed can.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .checks import Checker, sampling_variance
from .tracer import SCHEMES


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[Checker, object], bytes]


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def _normalised(x: np.ndarray) -> np.ndarray:
    # The same arithmetic WeightVector applies, so checks see the stored weights.
    return x / float(x.sum())


class SirDefault:
    """``finset benchmark`` in-process at the paper's defaults."""

    name = "sir_default"

    # The CLI's defaults, which are the paper's: the benchmark passes no size flag.
    DEFAULTS = {"--particles": 100, "--steps": 60, "--runs": 100}

    def __init__(self, out_dir: Path, particles=100, steps=60, runs=100):
        self.out_dir = Path(out_dir)
        self.particles, self.steps, self.runs = particles, steps, runs

    def _argv(self, seed, output, runs):
        argv = ["benchmark", "--seed", str(seed), "--output", str(output)]
        for flag, value in (("--particles", self.particles), ("--steps", self.steps),
                            ("--runs", runs)):
            if value != self.DEFAULTS[flag]:
                argv += [flag, str(value)]
        return argv

    def setup(self, fin, seed):
        self.fin = fin
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.records = self.out_dir / f"{self.name}-records.csv"
        self.aggregate = self.out_dir / f"{self.name}-records_agg.csv"
        self.argv = self._argv(seed, self.records, self.runs)
        self._main(self._argv(seed, self.out_dir / f"{self.name}-warmup.csv", 1))

    def _main(self, argv):
        try:
            return self.fin.cli.main(argv)
        except SystemExit as e:  # argparse rejects argv by exiting
            return e.code

    def _fingerprint(self) -> bytes:
        h = hashlib.sha256()
        for path in (self.records, self.aggregate):
            h.update(path.read_bytes())
        return h.digest()

    @property
    def bytes_out(self) -> int:
        return self.records.stat().st_size + self.aggregate.stat().st_size

    def verify(self, checker: Checker) -> tuple[int, int]:
        """One untimed pass with every resampler call checked, then the CSVs."""
        resamplers = self.fin.resampling.RESAMPLERS
        originals = dict(resamplers)
        for scheme, fn in originals.items():
            resamplers[scheme] = self._checked(checker, scheme, fn)
        before = len(checker.failures)
        try:
            rc = self._main(self.argv)
        finally:
            resamplers.update(originals)
        if checker.expect(rc == 0, f"{self.name}: finset benchmark exited {rc}"):
            self._check_csvs(checker)
        self.reference = self._fingerprint() if rc == 0 else None
        return 1, int(len(checker.failures) > before)

    def _checked(self, checker, scheme, fn):
        def call(p, n, rng=None):
            before = rng.draws
            out = fn(p, n, rng)
            w = p.weights.weights
            label = f"{self.name} {scheme} M={len(w)}"
            checker.counts(out.sizes, len(w), n, label)
            checker.draws(scheme, rng.draws - before, w, n, label)
            return out

        return call

    def _check_csvs(self, checker):
        methods = SCHEMES
        lines = self.records.read_text().splitlines()
        if not checker.expect(lines and lines[0] == "run,t,x_true,y_obs,method,estimate,sv",
                              f"{self.name}: bad records header"):
            return
        want = self.runs * self.steps * len(methods)
        checker.expect(len(lines) - 1 == want,
                       f"{self.name}: {len(lines) - 1} record rows, expected {want}")
        steps: dict[tuple[str, str], dict[str, float]] = {}
        for line in lines[1:]:
            f = line.split(",")
            if not checker.expect(len(f) == 7, f"{self.name}: malformed record {line!r}"):
                return
            sv = float(f[6])
            checker.expect(np.isfinite(sv) and sv >= 0.0,
                           f"{self.name}: run {f[0]} t {f[1]} {f[4]} sv {sv!r}")
            steps.setdefault((f[0], f[1]), {})[f[4]] = sv
        for (run, t), svs in steps.items():
            checker.msv_dominates(svs, f"{self.name} run {run} t {t}")
        agg = self.aggregate.read_text().splitlines()
        checker.expect(len(agg) - 1 == self.steps * len(methods),
                       f"{self.name}: {len(agg) - 1} aggregate rows")
        per_t: dict[str, dict[str, float]] = {}
        for line in agg[1:]:
            t, m, v = line.split(",")
            per_t.setdefault(t, {})[m] = float(v)
        for t, svs in per_t.items():
            checker.msv_dominates(svs, f"{self.name} aggregate t {t}")

    def ops(self) -> list[Op]:
        def check(checker, rc):
            checker.expect(rc == 0, f"{self.name}: finset benchmark exited {rc}")
            fp = self._fingerprint() if rc == 0 else b""
            checker.expect(fp == self.reference, f"{self.name}: output differs from checked pass")
            return fp

        return [Op("benchmark", lambda: self._main(self.argv), check)]

    @staticmethod
    def probe() -> float:
        """Interpreter work and NumPy calls on 128-element arrays, as in a SIR step."""
        def work():
            x = np.linspace(0.0, 1.0, 128)
            state = 1
            for _ in range(150):
                c = np.cumsum(x)
                state += int(np.searchsorted(c, 0.5 * c[-1]))
                for _ in range(20):
                    state = (state * 6364136223846793005 + 1442695040888963407) % 2**64

        return _timed(work)

    def describe(self) -> dict:
        return {"runs": self.runs, "steps": self.steps, "particles": self.particles,
                "methods": list(SCHEMES),
                "particle_steps_per_pass": self.runs * self.steps * self.particles}


class ResampleLarge:
    """Each of the five resamplers called directly at M = n on raw weight arrays."""

    name = "resample_large"
    # lognormal sigma: 0.1 gives ESS ~ M and residual draws ~ 0.52n;
    # 3.0 gives ESS of a few hundred and residual draws ~ 0.1n.
    KINDS = (("near_uniform", 0.1), ("heavy_tailed", 3.0))

    def __init__(self, m: int = 10**6):
        self.m = m
        self._probe_cdf = np.cumsum(np.full(m, 1.0 / m))
        self._probe_keys = np.random.default_rng(0).random(m // 300)

    def setup(self, fin, seed):
        self.fin = fin
        self.inputs = self.stored = None  # free the previous set-up's arrays first
        g = np.random.default_rng(seed)
        self.inputs = [(kind, _normalised(g.lognormal(0.0, sigma, self.m)))
                       for kind, sigma in self.KINDS]
        # What WeightVector stores: the checks' floors must match it exactly.
        self.stored = [_normalised(w) for _, w in self.inputs]
        self.rng_seed = int(g.integers(2**62))
        self.svs = [{} for _ in self.inputs]
        warm = _normalised(self.inputs[1][1][:1000])
        for scheme in SCHEMES:
            fin.resampling.RESAMPLERS[scheme](warm, warm.size, fin.rng.RngStream(0))

    def verify(self, checker):
        return 0, 0

    def probe(self) -> float:
        """Random-key searchsorted into an M-element CDF, and a cumsum over part of it."""
        def work():
            np.searchsorted(self._probe_cdf, self._probe_keys)
            np.cumsum(self._probe_cdf[: self.m // 5])

        return _timed(work)

    def ops(self) -> list[Op]:
        return [Op(scheme, self._call(k, j, scheme), self._check(k, scheme, kind))
                for k, (kind, _) in enumerate(self.inputs)
                for j, scheme in enumerate(SCHEMES)]

    def _call(self, k, j, scheme):
        def run():
            rng = self.fin.rng.RngStream(self.rng_seed).spawn(k * len(SCHEMES) + j)
            return self.fin.resampling.RESAMPLERS[scheme](self.inputs[k][1], self.m, rng), rng
        return run

    def _check(self, k, scheme, kind):
        def check(checker, out):
            stored, n = self.stored[k], self.m
            result, rng = out
            counts = result.sizes
            label = f"{self.name} {scheme} {kind}"
            if not checker.counts(counts, stored.size, n, label):
                return b""
            checker.draws(scheme, rng.draws, stored, n, label)
            self.svs[k][scheme] = sampling_variance(counts, stored, n)
            if scheme == "msv":
                checker.expect(np.all(np.abs(counts - n * stored) < 1.0),
                               f"{label}: counts outside |size - n*w| < 1")
                checker.msv_dominates(self.svs[k], label)
            return counts.tobytes()

        return check

    def describe(self) -> dict:
        m = self.m
        l3 = cache_bytes(3)
        inputs = {}
        for (kind, _), w in zip(self.inputs, self.stored):
            floors = int(np.floor(m * w).sum())
            inputs[kind] = {"ess": float(1.0 / np.sum(w * w)),
                            "residual_draws": m - floors,
                            "residual_draw_share": (m - floors) / m}
        return {
            "m": m, "n": m, "inputs": inputs,
            "array_bytes_float64": 8 * m,
            "l3_bytes": l3,
            "computed_bytes_per_call": {
                kind: {s: computed_bytes(s, m, m, info["residual_draws"]) for s in SCHEMES}
                for kind, info in inputs.items()},
            "computed_bytes_note": ("computed, not measured: each materialised 8-byte "
                                    "array written once and read once; temporaries of "
                                    "elementwise expressions and cache effects ignored"),
        }


# Materialised arrays per call, as (arrays of length M, of length n, of length
# residual draws): multinomial keeps weights, CDF and counts plus n uniforms
# and n indices; residual keeps weights, floors, residuals, CDF and counts plus
# its draws and their indices; systematic keeps weights, CDF and counts plus an
# n grid and n indices; rsr keeps weights, CDF, cumulative counts and counts;
# msv keeps weights, floors, residuals, the sort order and counts.
_ARRAYS = {"multinomial": (3, 2, 0), "residual": (5, 0, 2), "systematic": (3, 2, 0),
           "rsr": (4, 0, 0), "msv": (5, 0, 0)}


def computed_bytes(scheme: str, m: int, n: int, residual_draws: int) -> int:
    per_m, per_n, per_draw = _ARRAYS[scheme]
    return 2 * 8 * (per_m * m + per_n * n + per_draw * residual_draws)


def cache_bytes(level: int) -> int | None:
    """Size of one cache of the given level, from sysfs; None where unavailable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


class PartitionVerify:
    """Apportionment with n >> M plus the verification calls, per instance."""

    name = "partition_verify"

    def __init__(self, m_max: int = 3000, m_points: int = 12, ratio_points: int = 6):
        # A fixed log-spaced grid keeps the work per pass the same for every
        # seed; the seed draws the weights.
        self.grid = [(int(m), float(r))
                     for m in np.unique(np.round(np.geomspace(10, m_max, m_points)))
                     for r in np.geomspace(1.0, 1000.0, ratio_points)]
        self._probe_d = np.linspace(-1.0, 1.0, 2 * m_max // 3)

    def setup(self, fin, seed):
        self.fin = fin
        g = np.random.default_rng(seed)
        self.instances = [(_normalised(g.lognormal(0.0, 1.0, m)), max(1, round(m * r)))
                          for m, r in self.grid]
        # What WeightVector stores: the checks' floors must match it exactly.
        self.stored = [_normalised(w) for w, _ in self.instances]
        self.tiny = [(_normalised(g.lognormal(0.0, 1.0, int(g.integers(2, 5)))),
                      int(g.integers(1, 9))) for _ in range(24)]
        self._verify_one(*self.instances[0])

    def probe(self) -> float:
        """Broadcast compares over 500 rows of an M x M transfer matrix, at M = 2/3 of
        the largest M, in blocks small enough to leave the peak memory alone."""
        def work():
            d = self._probe_d
            for i in range(0, 500, 100):
                np.all((1.0 + d[i:i + 100, None] - d[None, :]) > -1.0)

        return _timed(work)

    def _verify_one(self, w, n):
        p = self.fin.partition
        a = p.lmse_partition(w, n)
        return (a, p.residuals(w, n), p.mse(a, w), p.mae(a, w),
                p.check_theory1_bound(a, w), p.check_local_optimality(a, w))

    def verify(self, checker):
        """Tiny instances against the brute-force oracle, outside the timed region."""
        p = self.fin.partition
        failed = 0
        for w, n in self.tiny:
            before = len(checker.failures)
            a = p.lmse_partition(w, n)
            _, best = p.brute_force_partition(w, n)
            got = p.mse(a, w)
            checker.expect(got <= best + 1e-12,
                           f"{self.name}: M={w.size} n={n} mse {got!r} > oracle {best!r}")
            failed += len(checker.failures) > before
        return len(self.tiny), failed

    def ops(self) -> list[Op]:
        return [Op("instance", (lambda w=w, n=n: self._verify_one(w, n)), self._check(stored, n))
                for (w, n), stored in zip(self.instances, self.stored)]

    def _check(self, w, n):
        label = f"{self.name} M={w.size} n={n}"
        floors = np.floor(n * w).astype(np.int64)

        def check(checker, out):
            a, res, mse, mae, bound_ok, local_ok = out
            sizes = a.sizes
            if not checker.counts(sizes, w.size, n, label):
                return b""
            extra = sizes - floors
            checker.expect(np.all((extra == 0) | (extra == 1)),
                           f"{label}: sizes not Floor(n*w) or Floor(n*w)+1")
            checker.expect(bound_ok is True, f"{label}: check_theory1_bound is {bound_ok}")
            checker.expect(local_ok is True, f"{label}: check_local_optimality is {local_ok}")
            d = sizes - n * w
            for got, want, what in ((mse, np.mean(d * d), "mse"), (mae, np.mean(np.abs(d)), "mae")):
                checker.expect(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                               f"{label}: {what} {got!r}, independent {want!r}")
            checker.expect(len(res) == w.size, f"{label}: {len(res)} residuals")
            return sizes.tobytes() + res.residuals.tobytes() + struct.pack("<dd??", mse, mae,
                                                                            bound_ok, local_ok)

        return check

    def describe(self) -> dict:
        ms = [w.size for w, _ in self.instances]
        return {"instances": len(self.instances), "m_min": min(ms), "m_max": max(ms),
                "n_over_m": [1.0, 1000.0], "total_bins": int(sum(ms)),
                "total_units": int(sum(n for _, n in self.instances)),
                "tiny_oracle_instances": len(self.tiny)}
