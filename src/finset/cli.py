"""Command-line interface: partition, resample, and benchmark to CSV.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 particle collapse.
Reals are serialized with shortest round-trip formatting; output is RFC-4180
style CSV with a header row and LF line endings, written to --output or
stdout. The default seed can be overridden with the FINSET_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .model import (METHODS, BenchmarkConfig, ParticleCollapseError, aggregate_mean_sv,
                    run_benchmark)
from .partition import ValidationError, as_weights, lmse_partition, mae, mse, residuals
from .resampling import RESAMPLERS, sampling_variance
from .rng import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_COLLAPSE = 4


def _fmt(x) -> str:
    return repr(float(x))


def _parse_weights(args) -> list[float]:
    """The --weights list, or the first field of each non-blank --weights-file row."""
    if args.weights is not None:
        fields = [s for s in args.weights.split(",") if s.strip()]
    else:
        with open(args.weights_file, newline="") as fh:
            fields = [line.split(",")[0] for line in fh if line.strip()]
    try:
        return [float(s) for s in fields]  # float() strips the whitespace itself
    except ValueError as e:
        raise ValidationError(f"unparsable weight: {e}") from None


def _emit(chunks, path):
    """Write the text chunks, in order, to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def cmd_partition(args) -> int:
    w = as_weights(_parse_weights(args))
    alloc = lmse_partition(w, args.n)
    res = residuals(w, args.n)
    lines = ["index,weight,expected,size,residual"]
    for i in range(len(w)):
        lines.append(
            f"{i},{_fmt(w.weights[i])},{_fmt(args.n * w.weights[i])},"
            f"{alloc.sizes[i]},{_fmt(res.residuals[i])}"
        )
    lines.append(f"mse={_fmt(mse(alloc, w))},mae={_fmt(mae(alloc, w))}")
    _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def cmd_resample(args) -> int:
    w = as_weights(_parse_weights(args))
    rng = RngStream(args.seed)
    counts = RESAMPLERS[args.method](w, args.n, rng)
    lines = ["index,weight,count"]
    for i in range(len(w)):
        lines.append(f"{i},{_fmt(w.weights[i])},{counts.sizes[i]}")
    lines.append(f"sv={_fmt(sampling_variance(counts, w))}")
    _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    config = BenchmarkConfig(
        num_particles=args.particles,
        num_steps=args.steps,
        num_mc_runs=args.runs,
        seed=args.seed,
        methods=tuple(args.methods.split(",")),
        baseline_method=args.baseline,
        resample_each_step=not args.no_step_resampling,
    )
    agg_path = args.aggregate
    if agg_path is None and args.output is not None:
        root, ext = os.path.splitext(args.output)
        agg_path = f"{root}_agg{ext or '.csv'}"
    elif args.output is not None and os.path.realpath(agg_path) == os.path.realpath(args.output):
        raise ValidationError(f"--aggregate and --output are one file: {args.output!r}")
    result = run_benchmark(config)

    def records():  # run by run: one run's rows are one chunk, no run's text outlives it
        yield "run,t,x_true,y_obs,method,estimate,sv\n"
        columns = (result.x_true, result.y_obs, result.estimate)
        for run, rows in enumerate(zip(*columns)):
            sv, lines = [(m, column[run].tolist()) for m, column in result.sv.items()], []
            for t, (x, y, estimate) in enumerate(zip(*(r.tolist() for r in rows))):
                head, tail = f"{run},{t + 1},{x!r},{y!r},", f",{estimate!r},"
                for m, column in sv:
                    lines.append(f"{head}{m}{tail}{column[t]!r}\n")
            yield "".join(lines)

    _emit(records(), args.output)
    agg_lines = ["t,method,mean_sv"]
    for (t, m), mean_sv in aggregate_mean_sv(result).items():
        agg_lines.append(f"{t},{m},{_fmt(mean_sv)}")
    _emit(["\n".join(agg_lines) + "\n"], agg_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    seed = os.environ.get("FINSET_SEED", "0")
    try:
        default_seed = int(seed)
    except ValueError:
        raise ValidationError(f"FINSET_SEED must be an integer, got {seed!r}") from None
    parser = argparse.ArgumentParser(
        prog="finset",
        description="Proportional integer partitioning and particle resampling tools",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_weight_args(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--weights", help="comma-separated proportions")
        src.add_argument("--weights-file", help="CSV file, one weight per row")
        p.add_argument("--n", type=int, required=True, help="total units to assign")
        p.add_argument("--output", help="output CSV path (default stdout)")

    p_part = sub.add_parser("partition", help="integer partition minimizing MSE")
    add_weight_args(p_part)
    p_part.set_defaults(func=cmd_partition)

    p_res = sub.add_parser("resample", help="resample counts for one scheme")
    add_weight_args(p_res)
    p_res.add_argument("--method", required=True, choices=sorted(RESAMPLERS))
    p_res.add_argument("--seed", type=int, default=default_seed)
    p_res.set_defaults(func=cmd_resample)

    p_bench = sub.add_parser("benchmark", help="SIR filter resampling comparison")
    p_bench.add_argument("--particles", type=int, default=BenchmarkConfig.num_particles)
    p_bench.add_argument("--steps", type=int, default=BenchmarkConfig.num_steps)
    p_bench.add_argument("--runs", type=int, default=BenchmarkConfig.num_mc_runs)
    p_bench.add_argument("--seed", type=int, default=default_seed)
    p_bench.add_argument(
        "--methods", default=",".join(METHODS),
        help="comma-separated subset of the five schemes",
    )
    p_bench.add_argument("--baseline", default=BenchmarkConfig.baseline_method,
                         choices=sorted(RESAMPLERS),
                         help="scheme that advances the shared population")
    p_bench.add_argument("--no-step-resampling", action="store_true",
                         help="never resample the shared population")
    p_bench.add_argument("--output", help="records CSV path (default stdout)")
    p_bench.add_argument("--aggregate",
                         help="mean-sv CSV path (default <output>_agg.csv)")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except ParticleCollapseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COLLAPSE


if __name__ == "__main__":
    sys.exit(main())
