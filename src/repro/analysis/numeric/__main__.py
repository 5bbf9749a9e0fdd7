"""CLI for the numeric analysis: the inventory dump and a NumSan smoke run.

``python -m repro.analysis.numeric inventory`` prints the numeric
inventory the R16-R20 lint rules govern: every lineage class, its
declared (or inherited) ``__numeric__`` discipline and how it entered
the inventory.  Exit status 2 on invalid annotations.

``python -m repro.analysis.numeric smoke`` runs a deterministic
out-of-order workload under ``sanitize="numeric"`` for each core
aggregate and prints the observed drift report.  Exit status 1 when any
aggregate exceeds its declared budget (NumSan raises) or nothing was
checked.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError


def _load_project(path: str):
    from repro.analysis.lint.model import Project, SourceFile, discover_files

    root = Path(path)
    files = [
        SourceFile.load(file, root=root if root.is_dir() else None)
        for file in discover_files([root])
    ]
    return Project(files)


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.analysis.numeric.sites import build_inventory

    inventory = build_inventory(_load_project(args.path))
    width = max((len(name) for name in inventory.classes), default=10)
    for name in sorted(inventory.classes):
        record = inventory.classes[name]
        discipline = record.effective or "?"
        origin = (
            f"inherited from {record.effective_origin}"
            if record.effective_origin
            else ("declared" if record.declared is not None else "missing")
        )
        print(
            f"{name:<{width}}  {discipline:<17} ({origin:<28}) "
            f"via {record.via}  [{record.module}:{record.line}]"
        )
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.engine.aggregates import make_aggregate
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.handlers import KSlackHandler
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner
    from repro.streams.delay import ExponentialDelay
    from repro.streams.disorder import inject_disorder
    from repro.streams.generators import generate_stream

    rng = np.random.default_rng(args.seed)
    elements = generate_stream(
        duration=args.elements / 200.0, rate=200.0, rng=rng
    )
    disordered = inject_disorder(elements, ExponentialDelay(0.3), rng)
    from repro.analysis.numeric.numsan import sanitize_operator

    failures = 0
    for name in args.aggregates.split(","):
        name = name.strip()
        operator = sanitize_operator(
            WindowAggregateOperator(
                SlidingWindowAssigner(size=20.0, slide=1.0),
                make_aggregate(name),
                KSlackHandler(1.0),
            )
        )
        output = run_pipeline(list(disordered), operator)
        report = operator.report
        entry = report.stats.get(name)
        if entry is None or entry.windows_checked == 0:
            print(f"{name:<10} NOT CHECKED ({len(output.results)} results)")
            failures += 1
            continue
        print(
            f"{name:<10} checked={entry.windows_checked:<6} "
            f"exact={entry.windows_exact:<5} skipped={entry.windows_skipped:<5} "
            f"max_rel_drift={entry.max_rel_drift:.3e} "
            f"max_ulp={entry.max_ulp:g} (bound {entry.discipline})"
        )
    if failures:
        print(f"numsan-smoke: {failures} unchecked aggregate(s)", file=sys.stderr)
        return 1
    print("numsan-smoke: all aggregates within declared budgets")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.numeric",
        description="Numeric analysis tools (inventory, NumSan smoke).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inventory = sub.add_parser("inventory", help="print the numeric inventory")
    inventory.add_argument(
        "path", nargs="?", default="src", help="source root to analyze"
    )
    inventory.set_defaults(func=_cmd_inventory)

    smoke = sub.add_parser(
        "smoke", help="run a NumSan-sanitized workload and print drift"
    )
    smoke.add_argument("--seed", type=int, default=18)
    smoke.add_argument("--elements", type=int, default=4000)
    smoke.add_argument(
        "--aggregates",
        default="sum,mean,count,variance,stddev",
        help="comma-separated aggregate names",
    )
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"numeric: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
