"""Paired parent/change runs of perfbench workloads, one markdown table each.

``make perf-ab PARENT=<sha> WORKLOAD="<name> ..." PAIRS=10`` archives ``PARENT``
once into a fresh temporary directory and, per workload (``--workload`` may
repeat), runs ``python3 -m perfbench --workload W --seed S --seconds 15
--trace 0`` from it and from this checkout, alternating which side goes
first (pair ``i`` uses seed ``S + i`` on both sides).  The five
exact metrics and ``# values_digest`` must match to the last digit in every
pair and no operation may fail (exit 1); the three noisy metrics get per-side
median, quartiles and wins.  Run nothing else meanwhile.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT = ("latency_sim_mean_s", "latency_sim_p99_s", "accuracy_mean", "theta_ok_frac",
         "emit_lag_p99_elements", "values_digest")
NOISY = {"setup_s": False, "throughput_eps": True, "state_peak_mb": False}  # higher is better?
SECONDS = 15  # BENCHMARK.json's run length: a table is only ever made at it


def measure(directory, workload, seed):
    """One run's metrics by name, with its values digest."""
    command = [sys.executable, "-m", "perfbench", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    report = json.loads(lines[-1])  # the run's closing line
    if report["failed"]:
        sys.exit(f"{report['failed']} failed operations in {directory} (seed {seed})")
    metrics = {name: entry["value"] for name, entry in report["metrics"].items()}
    metrics["values_digest"] = next(
        line.split(":", 1)[1].strip() for line in lines if line.startswith("# values_digest")
    )
    return metrics


def compare(sides, workload, pairs, first_seed):
    """Run the pairs of one workload, print its table; the pairs that differ."""
    runs = {"parent": [], "change": []}
    mismatches = []
    for pair in range(pairs):
        seed = first_seed + pair
        for side in sorted(sides, reverse=pair % 2 == 0):  # parent first on even pairs
            runs[side].append(measure(sides[side], workload, seed))
        old, new = runs["parent"][-1], runs["change"][-1]
        differing = [name for name in EXACT if old[name] != new[name]]
        if differing:
            mismatches.append(f"pair {pair} (seed {seed}): {', '.join(differing)}")
        print(f"# {workload} seed {seed}: {old['throughput_eps']:.0f} -> {new['throughput_eps']:.0f} eps",
              file=sys.stderr)
    print(f"| `{workload}` ({pairs} pairs of {SECONDS} s runs, seeds {first_seed}–{seed}) "
          "| parent median [q1, q3] | change median [q1, q3] | change wins |\n|---|---|---|---|")
    for name, higher in NOISY.items():
        old, new = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        quartiles = (statistics.quantiles(side, n=4, method="inclusive") for side in (old, new))
        cells = " | ".join(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in quartiles)
        print(f"| `{name}` | {cells} | {wins}/{pairs} |")
    print("\nExact metrics and `values_digest`: "
          + ("; ".join(mismatches) or "equal on every pair; 0 failed operations") + "\n", flush=True)
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="repeat for one table per workload from the one extracted parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    parser.add_argument("--scratch", help="where the parent's directory goes (default: system temp)")
    args = parser.parse_args()
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="perf_ab_", dir=args.scratch) as parent:  # never a stale tree
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
        sides = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            mismatches += compare(sides, workload, args.pairs, args.seed)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
