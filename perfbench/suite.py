"""The whole benchmark: every workload in its own fresh child interpreter.

``python -m perfbench [--seed 42] [--scale S] [--workload NAME] [--aa]``
runs each workload's end-to-end pass and then its per-layer pass, one
child after another, prints every metric by name with its unit, and
writes ``perfbench/out/results.json``.  ``--aa`` runs two full sets of
the same code and fails if any end-to-end metric differs by more than its
own bound; the metrics that are exact for a seed must match to the last
digit.
"""

from __future__ import annotations

import json
import sys

from perfbench import OUT_DIR, run_interpreter
from perfbench.run import fingerprint, load_spec, metric_units
from perfbench.workloads import WORKLOADS

#: End-to-end metrics that are a function of the seed alone.
EXACT_METRICS = (
    "latency_sim_mean_s", "latency_sim_p99_s", "accuracy_mean",
    "theta_ok_frac", "emit_lag_p99_elements",
)
#: The pair that runs the same inputs and query and must emit equal values.
EQUAL_RESULTS = ("tree_close_ov64", "sharded_proc2_ov64")


def run_child(args, workload: str, trace: int) -> dict:
    """One workload run in a fresh interpreter; returns its saved report."""
    arguments = [
        "-m", "perfbench", "--workload", workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--scale", repr(args.scale), "--trace", str(trace),
    ]
    done = run_interpreter(arguments, timeout=900)
    report_path = OUT_DIR / f"{workload}.trace{trace}.json"
    if done.returncode != 0 and not done.stdout.strip().endswith("}"):
        # No result line: the child died before it could report.
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        return {"workload": workload, "trace": trace, "correct": False, "attempted": 0,
                "failed": 0, "problems": [f"child exited {done.returncode}"], "metrics": {},
                "notes": {}}
    with open(report_path) as handle:
        return json.load(handle)


def run_set(args, names: list[str]) -> dict[str, dict[int, dict]]:
    reports: dict[str, dict[int, dict]] = {}
    for name in names:
        reports[name] = {}
        for trace in (0, 1):
            print(f"... {name} --trace {trace}", flush=True)
            reports[name][trace] = run_child(args, name, trace)
    return reports


def print_set(reports: dict[str, dict[int, dict]], units: dict[str, str]) -> None:
    for name, by_trace in reports.items():
        print(f"\n== {name}")
        for trace, title in ((0, "end to end"), (1, "per layer")):
            report = by_trace[trace]
            print(f"-- {title}: ops {report['attempted']}  failed_ops {report['failed']}  "
                  f"correct {report['correct']}")
            for problem in report["problems"]:
                print(f"   PROBLEM: {problem}")
            for key, value in report["notes"].items():
                print(f"   # {key}: {value}")
            for metric, value in report["metrics"].items():
                print(f"   {metric:34s} {value!r:>24} {units[metric]}")


def set_failures(reports: dict[str, dict[int, dict]]) -> list[str]:
    failures = [
        f"{name} --trace {trace}: failed_ops {report['failed']}, problems {report['problems']}"
        for name, by_trace in reports.items()
        for trace, report in by_trace.items()
        if not report["correct"]
    ]
    if all(name in reports for name in EQUAL_RESULTS):
        digests = {reports[name][0]["notes"].get("values_digest") for name in EQUAL_RESULTS}
        if len(digests) != 1:
            failures.append(f"{' and '.join(EQUAL_RESULTS)} emitted different values")
    return failures


def compare_sets(first, second, spec: dict) -> list[str]:
    """Side-by-side table of two sets; returns what disagrees beyond bounds."""
    disagreements = []
    print("\n== A/A: two sets of runs of the same code")
    print(f"{'workload':22s} {'metric':24s} {'A':>16s} {'B':>16s} {'diff':>9s} {'bound':>7s}")
    for name in first:
        a_metrics, b_metrics = first[name][0]["metrics"], second[name][0]["metrics"]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            if key not in a_metrics or key not in b_metrics:
                continue
            a, b = a_metrics[key], b_metrics[key]
            diff = abs(a - b) / abs(a)
            verdict = ""
            if key in EXACT_METRICS and a != b:
                verdict = "EXACT METRIC DIFFERS"
            elif diff > bound:
                verdict = "BEYOND BOUND"
            if verdict:
                disagreements.append(f"{name} {key}: A={a!r} B={b!r} ({verdict})")
            print(f"{name:22s} {key:24s} {a:16.6g} {b:16.6g} {diff:9.2%} {bound:7.1%} {verdict}")
    return disagreements


def main(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    machine = fingerprint(args.seed, args.scale)
    print("# fingerprint:", json.dumps(machine))
    sets = [run_set(args, names) for _ in range(2 if args.aa else 1)]
    failures: list[str] = []
    for reports in sets:
        print_set(reports, metric_units())
        failures.extend(set_failures(reports))
    if args.aa:
        failures.extend(compare_sets(sets[0], sets[1], load_spec()))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.json", "w") as handle:
        json.dump({"fingerprint": machine, "sets": sets}, handle, indent=1)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0
