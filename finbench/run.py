"""Run one finset benchmark workload and print its result.

Usage, from the repository root:

    python3 finbench/run.py --workload sir_default --seed 1 --seconds 30 --trace 0

Workloads: sir_default, resample_large, partition_verify.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it repeat each metric with its unit and sample counts. The run
record (machine, versions, seed, inputs, samples, failures) is written to
``.finbench_out/`` in the repository root, with the spans of the latest
traced run of each workload.
The program exits 2 without a result when the finset sources are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".finbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "finset" / "__init__.py").is_file():
        print(f"error: finset sources not found under {src}", file=sys.stderr)
        return 2
    # One caller, one thread: keep BLAS and OpenMP from fanning out. This
    # must happen before NumPy is first imported.
    from finbench import THREAD_PINS
    os.environ.update({name: "1" for name in THREAD_PINS})
    sys.path.insert(0, str(src))
    import finset
    if Path(finset.__file__).resolve().parent != (src / "finset").resolve():
        print(f"error: imported finset from {finset.__file__}, not {src}", file=sys.stderr)
        return 2

    from finbench import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = harness.WORKLOADS[args.workload](OUT_DIR)
    report = harness.run(workload, args.seed, args.seconds, bool(args.trace))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report.record, indent=1) + "\n")
    if report.tracer is not None:
        # One spans file per workload, replaced by each traced run: a traced
        # sir_default run records over a million spans.
        report.tracer.write_spans(OUT_DIR / f"{args.workload}-spans.csv")
    for message in report.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    samples = report.record["samples"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={samples}")
    for name, (value, unit) in report.metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
