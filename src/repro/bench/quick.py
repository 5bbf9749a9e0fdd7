"""Quick throughput check: E8 + E17 + E18 + E19 + E20 + E21 at reduced scale.

CI convenience (``make bench-quick``): runs the throughput-oriented
experiments small enough for a pull-request gate, prints their tables,
and writes machine-readable summaries of the batched-execution (E18),
tree-execution (E19), sharded-execution (E20) and process-pool (E21)
numbers::

    python -m repro.bench.quick --scale 0.1 --out BENCH_e18.json \
        --out-e19 BENCH_e19.json --out-e20 BENCH_e20.json \
        --out-e21 BENCH_e21.json

``--only E21`` (or any subset) restricts the run — the ``process-shard``
CI job uses this to gate just the process-executor numbers.

The JSON captures elements/second per execution path so regressions in
the bulk APIs, the partial-aggregate tree, the sharded engine and the
process pool show up as diffable artifacts.  The run fails (exit 1) when
any path's results diverge or when an E21 gate fails (E19 and E20 gate
result equality only; throughput gates for them are yet to be defined
from fresh runs, ROADMAP item 5a).  The E21
throughput gates are *core-scoped*: ``process(4) > single tree`` needs a
runner with at least 4 CPUs and ``process(2) >= serial(2)`` needs at
least 2 — on smaller runners they are recorded as skipped in the
artifact instead of failing (a 1-core box physically cannot show
multicore speedup; correctness rows are always enforced).  The ratio
``process(2) / single tree`` rides along as an ``"info"`` entry that
never fails the run: what two process shards buy over the tree they
shard, on the runner that produced the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.experiments import run_experiment
from repro.bench.report import ExperimentResult, render_table

QUICK_EXPERIMENTS = ("E8", "E17", "E18", "E19", "E20", "E21")


def summarize_e18(result: ExperimentResult) -> dict:
    """Distill the E18 table into the JSON artifact schema."""
    return {
        "experiment": result.experiment_id,
        "title": result.title,
        "operators": [
            {
                "operator": row["operator"],
                "scalar_eps": row["scalar_eps"],
                "batched_eps": row["batched_eps"],
                "speedup": row["speedup"],
                "results_equal": row["results_equal"],
            }
            for row in result.rows
        ],
    }


def summarize_e19(result: ExperimentResult) -> dict:
    """Distill the E19 table into the JSON artifact schema."""
    return {
        "experiment": result.experiment_id,
        "title": result.title,
        "configs": [dict(row) for row in result.rows],
    }


def summarize_e20(result: ExperimentResult) -> dict:
    """Distill the E20 table into the JSON artifact schema."""
    return {
        "experiment": result.experiment_id,
        "title": result.title,
        "configs": [dict(row) for row in result.rows],
    }


def summarize_e21(result: ExperimentResult) -> dict:
    """Distill the E21 table into the JSON artifact schema.

    Besides the raw rows the summary records ``cpu_count`` and the two
    core-scoped throughput gates with explicit pass/fail/skipped status,
    so the checked-in artifact says *why* a gate did or did not apply on
    the runner that produced it, plus the core-scoped ``"info"`` entry
    ``process2_over_tree`` (recorded, never enforced).
    """
    cpu_count = os.cpu_count() or 1
    configs = [dict(row) for row in result.rows]
    by_config = {row["config"]: row for row in configs}

    def ratio(a: str, b: str) -> float | None:
        row_a, row_b = by_config.get(a), by_config.get(b)
        if row_a is None or row_b is None or not row_b["eps"]:
            return None
        return row_a["eps"] / row_b["eps"]

    def scoped(min_cores: int, value: float | None, status: str) -> dict:
        """A gate entry, ``skipped`` on a runner below ``min_cores``."""
        if cpu_count < min_cores:
            return {
                "status": "skipped",
                "reason": f"needs >= {min_cores} cores, runner has {cpu_count}",
                "ratio": value,
            }
        return {"status": status, "ratio": value}

    headline = ratio("process(4)", "single tree")
    parity = ratio("process(2)", "serial(2)")
    gates = {
        "process4_beats_tree": scoped(
            4, headline, "pass" if headline is not None and headline > 1.0 else "fail"
        ),
        "process2_ge_serial2": scoped(
            2, parity, "pass" if parity is not None and parity >= 1.0 else "fail"
        ),
        "process2_over_tree": scoped(2, ratio("process(2)", "single tree"), "info"),
    }
    return {
        "experiment": result.experiment_id,
        "title": result.title,
        "cpu_count": cpu_count,
        "configs": configs,
        "gates": gates,
    }


def check_results_equal(summary: dict) -> list[str]:
    """Result-equality gate over an E19/E20/E21 summary; returns failures."""
    return [
        f"{summary['experiment']} result mismatch at {row['config']}"
        for row in summary["configs"]
        if not row["results_equal"]
    ]


def check_e21(summary: dict) -> list[str]:
    """Gate conditions over the E21 summary; returns failure messages.

    Correctness rows (``results_equal``, ``identical_to_serial``) are
    unconditional; the throughput gates enforce only entries whose
    recorded status is ``"fail"`` — ``"skipped"`` entries (runner below
    the gate's core requirement) and ``"info"`` entries pass by
    construction.
    """
    failures = check_results_equal(summary)
    for row in summary["configs"]:
        if row.get("identical_to_serial") is False:
            failures.append(
                f"E21 {row['config']} not bit-identical to its serial twin"
            )
    for gate_name, gate in summary["gates"].items():
        if gate["status"] == "fail":
            ratio = gate.get("ratio")
            shown = f"{ratio:.3f}" if ratio is not None else "n/a"
            failures.append(f"E21 gate {gate_name} failed (ratio {shown})")
    return failures


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.bench.quick``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.quick",
        description=(
            "Run the quick throughput experiments "
            "(E8, E17, E18, E19, E20, E21)."
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="workload scale fraction (default 0.1)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="EID",
        help="run only these quick experiments (e.g. --only E21)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_e18.json",
        help="path for the E18 JSON summary (default BENCH_e18.json)",
    )
    parser.add_argument(
        "--out-e19",
        default="BENCH_e19.json",
        help="path for the E19 JSON summary (default BENCH_e19.json)",
    )
    parser.add_argument(
        "--out-e20",
        default="BENCH_e20.json",
        help="path for the E20 JSON summary (default BENCH_e20.json)",
    )
    parser.add_argument(
        "--out-e21",
        default="BENCH_e21.json",
        help="path for the E21 JSON summary (default BENCH_e21.json)",
    )
    args = parser.parse_args(argv)

    if args.only is None:
        selected = QUICK_EXPERIMENTS
    else:
        selected = tuple(eid.upper() for eid in args.only)
        unknown = [eid for eid in selected if eid not in QUICK_EXPERIMENTS]
        if unknown:
            print(
                f"unknown quick experiment(s) {unknown}; "
                f"known: {list(QUICK_EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2

    summarizers = {
        "E18": summarize_e18,
        "E19": summarize_e19,
        "E20": summarize_e20,
        "E21": summarize_e21,
    }
    out_paths = {
        "E18": args.out,
        "E19": args.out_e19,
        "E20": args.out_e20,
        "E21": args.out_e21,
    }
    summaries = {}
    for experiment_id in selected:
        result = run_experiment(experiment_id, scale=args.scale)
        print(render_table(result))
        print()
        summarizer = summarizers.get(experiment_id)
        if summarizer is not None:
            summaries[experiment_id] = summarizer(result)

    for experiment_id, summary in summaries.items():
        path = out_paths[experiment_id]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")

    failures = []
    if "E18" in summaries:
        failures.extend(
            f"E18 result mismatch for: {row['operator']}"
            for row in summaries["E18"]["operators"]
            if not row["results_equal"]
        )
    for experiment_id in ("E19", "E20"):
        if experiment_id in summaries:
            failures.extend(check_results_equal(summaries[experiment_id]))
    if "E21" in summaries:
        failures.extend(check_e21(summaries["E21"]))
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
