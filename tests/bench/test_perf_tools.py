"""Tests for the A/B and attribution tools in ``benchmarks/``."""

import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.perf_ab import at_least_two, gate

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Ten parent runs: median 100, quartiles [95.75, 104.25] — 8.5 apart.
PARENT = [90.0, 94.0, 95.0, 98.0, 99.0, 101.0, 102.0, 105.0, 106.0, 110.0]


def test_gate_gain_needs_nine_wins_and_a_gap_wider_than_the_quartiles():
    change = [value + 12.0 for value in PARENT]  # 10/10 wins, medians 12 apart
    assert gate(PARENT, change, True, 0.25) == ("gain", 10, False)
    narrow = [value + 8.0 for value in PARENT]  # 10/10 wins, but within 8.5
    assert gate(PARENT, narrow, True, 0.25) == ("unresolved", 10, False)
    eight = change[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]  # 8/10 wins
    assert gate(PARENT, eight, True, 0.25) == ("unresolved", 8, False)
    nine = change[:9] + [PARENT[9] - 1.0]
    assert gate(PARENT, nine, True, 0.25) == ("gain", 9, False)


def test_gate_direction_follows_the_metric():
    lower = [value - 12.0 for value in PARENT]
    assert gate(PARENT, lower, False, 0.25) == ("gain", 10, False)
    assert gate(PARENT, lower, True, 0.25) == ("loss", 0, False)
    higher = [value + 12.0 for value in PARENT]
    assert gate(PARENT, higher, False, 0.25) == ("loss", 0, False)


def test_gate_flags_a_median_worse_than_the_bound():
    # 30% down against a 25% bound, on a higher-is-better metric.
    worse = [value * 0.7 for value in PARENT]
    assert gate(PARENT, worse, True, 0.25) == ("loss", 0, True)
    # 4% up on lower-is-better within a 5% bound, unresolved by the gap.
    assert gate(PARENT, [value * 1.04 for value in PARENT], False, 0.05) == (
        "unresolved", 0, False
    )
    # An unresolved verdict can still be beyond the bound.
    noisy = [value * (0.6 if index % 2 else 1.05) for index, value in enumerate(PARENT)]
    assert gate(PARENT, noisy, True, 0.05) == ("unresolved", 5, True)


def test_gate_on_equal_runs_is_unresolved():
    assert gate(PARENT, list(PARENT), True, 0.25) == ("unresolved", 0, False)
    assert gate([1.0, 1.0], [1.0, 1.0], False, 0.0) == ("unresolved", 0, False)


def test_pairs_below_two_are_refused_before_anything_runs():
    assert at_least_two("2") == 2
    for text in ("1", "0", "-3"):
        with pytest.raises(Exception, match="at least 2 pairs"):
            at_least_two(text)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf_ab.py", "--parent", "HEAD",
         "--workload", "tree_close_ov64", "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "at least 2 pairs" in done.stderr and done.stdout == ""


def test_calls_per_element_is_deterministic():
    """Two interpreters (two hash seeds) print the same table."""
    command = [sys.executable, "benchmarks/calls_per_element.py",
               "--workload", "tree_close_ov64", "--scale", "0.02"]
    tables = [
        subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        ).stdout
        for __ in range(2)
    ]
    assert tables[0] == tables[1]
    lines = tables[0].splitlines()
    assert lines[0].endswith("input elements") and int(lines[0].split()[0]) > 0
    # Python 3.10 prints ``stage``, later versions ``_SliceStore.stage``.
    assert re.search(r"engine/partial_tree\.py:\d+ (_SliceStore\.)?stage`", tables[0])
    assert lines[-1].endswith("| **total** |")


def test_calls_per_element_counts_one_worker_of_a_sharded_run():
    """A sharded workload adds shard 0's table, the same in two interpreters."""
    command = [sys.executable, "benchmarks/calls_per_element.py",
               "--workload", "sharded_proc2_ov64", "--scale", "0.02"]
    workers = []
    for __ in range(2):
        table = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        ).stdout
        coordinator, worker = re.split(r"\n\n(?=\d+ elements of shard 0)", table)
        assert coordinator.splitlines()[0].endswith("input elements")
        assert worker.splitlines()[0].endswith("elements of shard 0")
        workers.append(worker)
    assert workers[0] == workers[1]
    assert re.search(r"engine/process_pool\.py:\d+ decode_chunk`", workers[0])
    assert re.search(r"engine/parallel\.py:\d+ (ShardSession\.)?feed`", workers[0])
    assert workers[0].splitlines()[-1].endswith("| **total** |")


def test_peak_sites_puts_the_results_on_top():
    """On the single tree store the results are what the run leaves held:
    the top site is the line that builds a ``WindowResult``."""
    table = subprocess.run(
        [sys.executable, "benchmarks/peak_sites.py", "--workload", "tree_close_ov64"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    lines = table.splitlines()
    assert lines[0].startswith("tree_close_ov64: ") and "scale 0.1, seed 42" in lines[0]
    peak = float(re.search(r"^peak above run start: ([\d.]+) MB$", table, re.M)[1])
    held = float(re.search(r"^held after the run: ([\d.]+) MB$", table, re.M)[1])
    assert 0 < held <= peak
    sites = [line for line in lines if line.startswith("| ") and line.endswith("` |")]
    assert len(sites) == 15
    source = (ROOT / "src/repro/engine/aggregate_op.py").read_text().splitlines()
    builds = [n for n, text in enumerate(source, 1) if "WindowResult(" in text]
    assert len(builds) == 1
    assert sites[0].endswith(f"| `repro/engine/aggregate_op.py:{builds[0]}` |")


def test_peak_sites_samples_what_is_live_at_the_high():
    """The sampled pass prints a second table: the top sites live at the
    highest sampled level, which together stay within the untouched
    pass's peak."""
    table = subprocess.run(
        [sys.executable, "benchmarks/peak_sites.py", "--workload", "burst_adapt_tree"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    peak = float(re.search(r"^peak above run start: ([\d.]+) MB$", table, re.M)[1])
    found = re.search(
        r"^live at the sampled high: ([\d.]+) MB after (\d+) input elements", table, re.M
    )
    level, fed = float(found[1]), int(found[2])
    total = int(table.splitlines()[0].split(": ")[1].split()[0])
    assert level > 0 and 0 < fed <= total
    sampled = table[found.end():]
    rows = re.findall(r"^\| ([\d.]+) \| (\d+) \| `[^`]+:\d+` \| ([\d.]+)% \|$", sampled, re.M)
    assert len(rows) == 15
    sizes = [float(kib) * 1024 for kib, _, _ in rows]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) <= peak * 1e6
    assert sum(float(share) for _, _, share in rows) <= 100.0
