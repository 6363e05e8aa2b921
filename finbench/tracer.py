"""Spans around finset's public functions, recorded from outside the library.

The tracer replaces names at the module where they are looked up when
called (``finset.model.gammas``, not only ``finset.rng.gammas``), the entries
of the shared ``RESAMPLERS`` dict, the ``RngStream`` draw methods and the
``__init__`` of the validated types. ``restore`` puts every original back.

Spans live in memory as ``(name, start, end, parent)`` tuples, where parent
is the index of the enclosing span or -1. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter

SCHEMES = ("multinomial", "residual", "systematic", "rsr", "msv")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, tally=None):
        """Return fn recording one span per call; tally(args, result) may count work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if tally is not None:
                    tally(args, out)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def patch(self, owner, attr, name, tally=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, tally))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, table, key, name, fn):
        original = table[key]
        table[key] = self.wrap(name, fn)

        def undo():
            table[key] = original

        self._undo.append(undo)

    def install(self, fin):
        """Wrap every traced name of the finset modules in namespace ``fin``."""
        cli, model, rs, part, rng = fin.cli, fin.model, fin.resampling, fin.partition, fin.rng
        counts = self.counts

        def count_steps(args, records):
            counts["model.steps"] += len(records)

        def count_uniforms(args, out):
            counts["rng.uniforms_drawn"] += 1 if isinstance(out, float) else len(out)

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "run_benchmark", "model.run_benchmark", count_steps)
        self.patch(model, "simulate_truth", "model.simulate_truth")
        self.patch(model, "gammas", "rng.gammas")
        self.patch(model, "normals", "rng.normals")
        self.patch(rng.RngStream, "next_uniform", "rng.next_uniform", count_uniforms)
        self.patch(rng.RngStream, "next_uniforms", "rng.next_uniforms", count_uniforms)
        # model.RESAMPLERS and resampling.RESAMPLERS are one dict.
        for scheme in SCHEMES:
            self.patch_item(rs.RESAMPLERS, scheme, f"resampling.{scheme}",
                            self._count_draws(scheme, rs.RESAMPLERS[scheme]))
        self.patch(model, "sampling_variance", "resampling.sampling_variance")
        self.patch(model, "counts_to_indices", "resampling.counts_to_indices")
        self.patch(rs.ParticleSet, "__init__", "resampling.ParticleSet")
        self.patch(rs, "lmse_partition", "partition.lmse_partition")
        self.patch(rs, "mse", "partition.mse")
        for fn in ("lmse_partition", "residuals", "mse", "mae",
                   "check_theory1_bound", "check_local_optimality"):
            self.patch(part, fn, f"partition.{fn}")
        self.patch(part.WeightVector, "__init__", "partition.WeightVector")
        self.patch(part.Allocation, "__init__", "partition.Allocation")

    def _count_draws(self, scheme, fn):
        counts = self.counts

        def call(p, n, rng=None):
            before = rng.draws if rng is not None else 0
            out = fn(p, n, rng)
            if rng is not None:
                counts[f"resampling.{scheme}_uniforms"] += rng.draws - before
            return out

        return call

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            dur = end - start
            s["calls"] += 1
            s["incl_s"] += dur
            s["self_s"] += dur - child[i]
            s["durations"].append(dur)
        return out

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")
