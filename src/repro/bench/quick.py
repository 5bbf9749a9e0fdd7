"""Quick throughput check: E8 + E17 + E21 at reduced scale.

CI convenience (``make bench-quick``): runs the throughput experiments
small enough for a pull-request gate, prints their tables, and writes one
machine-readable summary per gated experiment — the window execution
paths (E17) and sharded execution (E21) — as ``BENCH_<eid>.json`` under
``--out-dir``::

    python -m repro.bench.quick --scale 0.1 --out-dir .

``--only E21`` (or any subset) restricts the run — the ``process-shard``
CI job uses this to gate just the process-executor numbers.

Every summary has one shape: ``experiment``, ``title``, the table's
``rows`` and a ``fingerprint`` under perfbench's field names (``nproc``,
``python``, ``platform``, ``scale``, ``git_commit``), so elements/second
from different files — and from ``perfbench/out`` — can be told apart
by the machine and commit that produced them.  The run fails (exit 1)
when any path's results diverge or when an E21 gate fails (E17 gates
result equality only; its throughput gates live in ``benchmarks/``,
ROADMAP item 6), and exits 2 on a bad argument such as a non-positive
scale.  The E21 summary adds its
``gates``, which are *core-scoped*: ``process(4) > single tree`` needs a
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
import platform
import subprocess
import sys
from pathlib import Path

from repro.bench.experiments import run_experiment
from repro.bench.report import ExperimentResult, render_table
from repro.errors import ReproError

QUICK_EXPERIMENTS = ("E8", "E17", "E21")

#: The quick experiments that leave a ``BENCH_<eid>.json`` and are gated.
SUMMARIZED = ("E17", "E21")


def fingerprint(scale: float) -> dict:
    """Machine, interpreter, scale and commit a summary was produced on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # installed outside a git checkout
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "git_commit": commit,
    }


def summarize(result: ExperimentResult, scale: float) -> dict:
    """Distill one experiment table into the JSON artifact schema.

    E21 adds ``gates``: the two core-scoped throughput gates with explicit
    pass/fail/skipped status, so the checked-in artifact says *why* a gate
    did or did not apply on the runner that produced it, plus the
    core-scoped ``"info"`` entry ``process2_over_tree`` (recorded, never
    enforced).
    """
    summary = {
        "experiment": result.experiment_id,
        "title": result.title,
        "fingerprint": fingerprint(scale),
        "rows": [dict(row) for row in result.rows],
    }
    if result.experiment_id == "E21":
        summary["gates"] = _e21_gates(summary["rows"], summary["fingerprint"]["nproc"])
    return summary


def _e21_gates(rows: list[dict], cpu_count: int) -> dict:
    by_config = {row["config"]: row for row in rows}

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
    return {
        "process4_beats_tree": scoped(
            4, headline, "pass" if headline is not None and headline > 1.0 else "fail"
        ),
        "process2_ge_serial2": scoped(
            2, parity, "pass" if parity is not None and parity >= 1.0 else "fail"
        ),
        "process2_over_tree": scoped(2, ratio("process(2)", "single tree"), "info"),
    }


def check_results_equal(summary: dict) -> list[str]:
    """Result-equality gate over a summary; returns failures, each naming
    its row by the table's first column."""
    return [
        f"{summary['experiment']} result mismatch at {next(iter(row.values()))}"
        for row in summary["rows"]
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
    for row in summary["rows"]:
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
            f"({', '.join(QUICK_EXPERIMENTS)})."
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
        "--out-dir",
        type=Path,
        default=Path("."),
        help="directory for the BENCH_<eid>.json summaries (default .)",
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

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for experiment_id in selected:
        try:
            result = run_experiment(experiment_id, scale=args.scale)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_table(result))
        print()
        if experiment_id not in SUMMARIZED:
            continue
        summary = summarize(result, args.scale)
        path = args.out_dir / f"BENCH_{experiment_id.lower()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")
        check = check_e21 if experiment_id == "E21" else check_results_equal
        failures.extend(check(summary))
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
