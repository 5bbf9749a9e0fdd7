"""Paired parent/change runs of perfbench workloads, one markdown table each.

``make perf-ab PARENT=<sha> WORKLOAD="<name> ..." PAIRS=10`` archives ``PARENT``
once into a fresh temporary directory, copies this checkout's files into
another, and, per workload (``--workload`` may repeat), runs ``python3 -m
perfbench --workload W --seed S --seconds 15 --trace 0`` from both,
alternating which side goes first (pair ``i`` uses seed ``S + i`` on both
sides).  The change side is what ``git ls-files -co --exclude-standard``
lists (tracked files as they are on disk, untracked ones, nothing ignored),
copied once at the start: both sides start without ``__pycache__``, so their
bytecode caches are alike (a tree that has one reads ``setup_s`` up to a
third faster from that alone), and edits made while a table is being made
do not reach it.  There is no flag to run from the checkout itself.  The five
exact metrics and ``# values_digest`` must match to the last digit in every
pair and no operation may fail (exit 1); the three noisy metrics get per-side
median, quartiles, wins and the gate's verdict (:func:`gate`): ``gain`` or
``loss`` when one side wins at least nine pairs in ten and the medians are
further apart than the parent's quartile distance, ``unresolved``
otherwise, and ``beyond bound`` when the change's median is worse than the
parent's by more than the metric's ``BENCHMARK.json`` bound.  A quartile
needs two runs a side, so ``--pairs`` is at least 2.  Run nothing else
meanwhile.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT = ("latency_sim_mean_s", "latency_sim_p99_s", "accuracy_mean", "theta_ok_frac",
         "emit_lag_p99_elements", "values_digest")
NOISY = ("setup_s", "throughput_eps", "state_peak_mb")
SECONDS = 15  # BENCHMARK.json's run length: a table is only ever made at it
WIN_SHARE = 0.9  # of the pairs, for a gain or a loss


def end_to_end_spec():
    """``BENCHMARK.json``'s end-to-end metrics by name (direction and bound)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def gate(parent, change, higher, bound):
    """The verdict on one noisy metric from paired runs (pair ``i`` is
    ``parent[i]``, ``change[i]``): ``(verdict, wins, beyond_bound)``.

    ``verdict`` is ``"gain"`` or ``"loss"`` when the change wins, or loses,
    at least :data:`WIN_SHARE` of the pairs and the medians are further
    apart than the parent's quartile distance, else ``"unresolved"``.
    ``wins`` counts the pairs the change wins.  ``beyond_bound`` is
    whether the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.
    """
    pairs = len(parent)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    losses = sum((b < a) if higher else (b > a) for a, b in zip(parent, change))
    q1, old, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    new = statistics.median(change)
    apart = abs(new - old) > q3 - q1
    better = new > old if higher else new < old
    if apart and better and wins >= WIN_SHARE * pairs:
        verdict = "gain"
    elif apart and not better and losses >= WIN_SHARE * pairs:
        verdict = "loss"
    else:
        verdict = "unresolved"
    worse_by = (old - new) if higher else (new - old)
    return verdict, wins, worse_by > bound * abs(old)


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


def copy_checkout(target):
    """This checkout's tracked and untracked files, none that are ignored."""
    listing = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is listed too
            destination = pathlib.Path(target, name)
            destination.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination)


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
          "| parent median [q1, q3] | change median [q1, q3] | change wins | gate |\n"
          "|---|---|---|---|---|")
    spec = end_to_end_spec()
    for name in NOISY:
        higher = spec[name]["better"] == "higher"
        old, new = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        quartiles = (statistics.quantiles(side, n=4, method="inclusive") for side in (old, new))
        cells = " | ".join(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in quartiles)
        verdict, wins, beyond = gate(old, new, higher, spec[name]["bound"])
        print(f"| `{name}` | {cells} | {wins}/{pairs} | {verdict}{', beyond bound' if beyond else ''} |")
    print("\nExact metrics and `values_digest`: "
          + ("; ".join(mismatches) or "equal on every pair; 0 failed operations") + "\n", flush=True)
    return mismatches


def at_least_two(text):
    """``--pairs``: an int of at least 2, the fewest runs a quartile takes."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 pairs for quartiles, got {pairs}")
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="repeat for one table per workload from the one extracted parent")
    parser.add_argument("--pairs", type=at_least_two, default=10)
    parser.add_argument("--seed", type=int, default=21, help="seed of the first pair")
    parser.add_argument("--scratch", help="where the two copies go (default: system temp)")
    args = parser.parse_args()
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="perf_ab_", dir=args.scratch) as scratch:  # never a stale tree
        sides = {side: pathlib.Path(scratch, side) for side in ("parent", "change")}
        sides["parent"].mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", sides["parent"]], input=archive.stdout, check=True)
        copy_checkout(sides["change"])
        for workload in args.workload:
            mismatches += compare(sides, workload, args.pairs, args.seed)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
