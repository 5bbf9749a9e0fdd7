"""Command-line interface: generate traces, run queries, run experiments.

Usage::

    python -m repro generate --duration 120 --rate 100 --delay exp:0.5 \
        --out trace.csv
    python -m repro run trace.csv --window 10 --slide 2 --aggregate mean \
        --quality 0.05
    python -m repro run trace.csv --window 10 --slide 2 --aggregate count \
        --slack 2.0
    python -m repro query trace.csv \
        "SELECT mean(value) FROM stream GROUP BY HOP(10, 2) WITH QUALITY 0.05"
    python -m repro experiment E3 E6 --scale 0.5

Delay model specs are ``kind:params``:

* ``const:D``            constant delay D seconds
* ``uniform:LO,HI``      uniform in [LO, HI)
* ``exp:MEAN``           exponential with the given mean
* ``pareto:SHAPE,SCALE`` Lomax heavy tail
* ``lognormal:MU,SIGMA`` lognormal
* ``mix:W1*SPEC1|W2*SPEC2``  weighted mixture, e.g.
  ``mix:0.9*exp:0.2|0.1*pareto:1.8,1.0``
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench.experiments import run_experiment
from repro.bench.report import render_table
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError, ReproError
from repro.queries.language import ContinuousQuery
from repro.streams.delay import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LognormalDelay,
    MixtureDelay,
    ParetoDelay,
    UniformDelay,
)
from repro.streams.disorder import inject_disorder, measure_disorder
from repro.streams.generators import generate_stream
from repro.streams.io import read_trace, write_trace


def parse_delay_model(spec: str) -> DelayModel:
    """Parse a ``kind:params`` delay-model spec (see module docstring)."""
    kind, __, params = spec.partition(":")
    try:
        if kind == "const":
            return ConstantDelay(float(params))
        if kind == "uniform":
            low, high = (float(p) for p in params.split(","))
            return UniformDelay(low, high)
        if kind == "exp":
            return ExponentialDelay(float(params))
        if kind == "pareto":
            shape, scale = (float(p) for p in params.split(","))
            return ParetoDelay(shape=shape, scale=scale)
        if kind == "lognormal":
            mu, sigma = (float(p) for p in params.split(","))
            return LognormalDelay(mu=mu, sigma=sigma)
        if kind == "mix":
            components = []
            for part in params.split("|"):
                weight, __, inner = part.partition("*")
                components.append((float(weight), parse_delay_model(inner)))
            return MixtureDelay(components)
    except (ValueError, ConfigurationError) as error:
        raise ConfigurationError(f"bad delay spec {spec!r}: {error}") from error
    raise ConfigurationError(
        f"unknown delay model kind {kind!r} in {spec!r}; see --help"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a disordered trace and write it as CSV."""
    rng = np.random.default_rng(args.seed)
    keys = tuple(args.keys.split(",")) if args.keys else None
    stream = generate_stream(
        duration=args.duration, rate=args.rate, rng=rng, keys=keys
    )
    model = parse_delay_model(args.delay)
    arrived = inject_disorder(stream, model, rng)
    n = write_trace(args.out, arrived)
    stats = measure_disorder(arrived)
    print(
        f"wrote {n} elements to {args.out} "
        f"({stats.out_of_order_fraction:.1%} out of order, "
        f"max delay {stats.max_delay:.2f}s)"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a windowed query (fluent flags) over a trace file."""
    stream = read_trace(args.trace)
    if any(element.arrival_time is None for element in stream):
        raise ConfigurationError(
            f"{args.trace} has elements without arrival timestamps; "
            "generate it with `repro generate` or inject disorder first"
        )
    query = (
        ContinuousQuery()
        .from_elements(stream)
        .window(SlidingWindowAssigner(size=args.window, slide=args.slide))
        .aggregate(args.aggregate)
    )
    if args.quality is not None:
        query = query.with_quality(args.quality)
    elif args.latency_budget is not None:
        query = query.with_latency_budget(args.latency_budget)
    elif args.slack is not None:
        query = query.with_slack(args.slack)
    elif args.max_delay_slack:
        query = query.with_max_delay_slack()
    else:
        query = query.without_buffering()
    query = query.mode(args.mode)
    if args.shards:
        query = query.shards(args.shards)
        if args.executor:
            query = query.executor(args.executor)
    elif args.executor:
        raise ConfigurationError("--executor requires --shards N")

    recorder = None
    if args.trace_out or args.trace_chrome:
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
    run = query.run(assess=not args.no_assess, trace=recorder)
    print(f"elements  : {run.output.metrics.n_elements}")
    print(f"results   : {run.output.metrics.n_results}")
    print(f"latency   : mean {run.latency.mean:.3f}s  p95 {run.latency.p95:.3f}s")
    print(f"slack     : {run.handler.current_slack:.3f}s ({run.handler.describe()})")
    if run.report is not None:
        print(
            f"quality   : mean error {run.report.mean_error:.5f}  "
            f"p95 {run.report.p95_error:.5f}  recall {run.report.window_recall:.1%}"
        )
    if recorder is not None:
        if args.trace_out:
            from repro.obs.export import write_jsonl

            count = write_jsonl(recorder.events, args.trace_out)
            print(f"trace     : {count} events -> {args.trace_out}")
        if args.trace_chrome:
            from repro.obs.export import write_chrome_trace

            count = write_chrome_trace(recorder, args.trace_chrome)
            print(
                f"trace     : {count} Chrome entries -> {args.trace_chrome} "
                "(open at https://ui.perfetto.dev)"
            )
    if args.show_results:
        for result in run.results[: args.show_results]:
            print(
                f"  {result.key if result.key is not None else '-':<10} "
                f"{result.window}: {result.value:.4f} "
                f"(n={result.count}, lat={result.latency:.2f}s)"
            )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run a SQL-dialect query over a trace file."""
    from repro.queries.sql import parse_query

    stream = read_trace(args.trace)
    if any(element.arrival_time is None for element in stream):
        raise ConfigurationError(
            f"{args.trace} has elements without arrival timestamps"
        )
    query = parse_query(args.sql).from_elements(stream)
    if args.mode is not None:
        query = query.mode(args.mode)
    recorder = None
    if args.trace_out:
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
    run = query.run(assess=not args.no_assess, trace=recorder)
    print(f"elements  : {run.output.metrics.n_elements}")
    print(f"results   : {run.output.metrics.n_results}")
    print(f"latency   : mean {run.latency.mean:.3f}s  p95 {run.latency.p95:.3f}s")
    print(f"slack     : {run.handler.current_slack:.3f}s ({run.handler.describe()})")
    if run.report is not None:
        print(
            f"quality   : mean error {run.report.mean_error:.5f}  "
            f"recall {run.report.window_recall:.1%}"
        )
    if recorder is not None:
        from repro.obs.export import write_jsonl

        count = write_jsonl(recorder.events, args.trace_out)
        print(f"trace     : {count} events -> {args.trace_out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run evaluation experiments and print their tables."""
    from repro.bench.report import to_csv, to_json

    for experiment_id in args.ids:
        result = run_experiment(experiment_id, scale=args.scale)
        print(render_table(result))
        print()
        if args.out_dir:
            base = Path(args.out_dir) / result.experiment_id.lower()
            to_csv(result, base.with_suffix(".csv"))
            to_json(result, base.with_suffix(".json"))
            print(f"exported {base}.csv / {base}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quality-driven continuous query execution over "
        "out-of-order data streams",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a disordered trace")
    generate.add_argument("--duration", type=float, required=True)
    generate.add_argument("--rate", type=float, required=True)
    generate.add_argument("--delay", default="exp:0.5", help="delay model spec")
    generate.add_argument("--keys", default=None, help="comma-separated key names")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)

    run = commands.add_parser("run", help="run a windowed query over a trace")
    run.add_argument("trace")
    run.add_argument("--window", type=float, required=True)
    run.add_argument("--slide", type=float, required=True)
    run.add_argument("--aggregate", default="mean")
    policy = run.add_mutually_exclusive_group()
    policy.add_argument("--quality", type=float, default=None, help="error target")
    policy.add_argument(
        "--latency-budget", type=float, default=None, help="slack bound (s)"
    )
    policy.add_argument("--slack", type=float, default=None, help="fixed K (s)")
    policy.add_argument(
        "--max-delay-slack", action="store_true", help="conservative MP-K-slack"
    )
    run.add_argument(
        "--mode",
        metavar="{naive,tree}",
        default="naive",
        help="execution mode: naive per-window adds, or shared slices under "
        "a partial-aggregate tree (one-merge closes, O(log) late patches)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="partition execution across N keyed shards (per-shard "
        "handlers, deterministic merge; see docs/SCALING.md)",
    )
    run.add_argument(
        "--executor",
        choices=["serial", "process"],
        default=None,
        help="shard execution strategy (requires --shards): \"serial\" "
        "(the default) runs shards in this process, \"process\" on a warm "
        "multi-core worker pool with chunked dispatch",
    )
    run.add_argument("--no-assess", action="store_true", help="skip the oracle")
    run.add_argument(
        "--show-results", type=int, default=0, metavar="N", help="print first N rows"
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record a structured trace and write it as JSONL "
        "(inspect with `python -m repro.obs report`)",
    )
    run.add_argument(
        "--trace-chrome",
        default=None,
        metavar="PATH",
        help="record a structured trace and write Chrome trace_event JSON "
        "(open at https://ui.perfetto.dev)",
    )
    run.set_defaults(handler=cmd_run)

    sql = commands.add_parser(
        "query", help="run a SQL-dialect continuous query over a trace"
    )
    sql.add_argument("trace")
    sql.add_argument(
        "sql",
        help='e.g. "SELECT mean(value) FROM stream GROUP BY HOP(10, 2) '
        'WITH QUALITY 0.05"',
    )
    sql.add_argument(
        "--mode",
        metavar="{naive,tree}",
        default=None,
        help="execution mode (default: naive)",
    )
    sql.add_argument("--no-assess", action="store_true", help="skip the oracle")
    sql.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record a structured trace and write it as JSONL",
    )
    sql.set_defaults(handler=cmd_query)

    experiment = commands.add_parser("experiment", help="run evaluation experiments")
    experiment.add_argument("ids", nargs="+", help="experiment ids, e.g. E3 E6")
    experiment.add_argument("--scale", type=float, default=1.0)
    experiment.add_argument(
        "--out-dir", default=None, help="export each table as CSV and JSON"
    )
    experiment.set_defaults(handler=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    raise SystemExit(main())
