"""Self-tests of the benchmark; ``pytest perfbench/tests`` (scale 0.05, about a minute)."""

import argparse
import dataclasses
import json
import math
import multiprocessing
import subprocess
import sys

import pytest

from perfbench import ROOT, measure, run, suite
from perfbench.reference import compute_reference, score
from perfbench.workloads import BY_NAME, WORKLOADS, generate

from repro import make_aggregate, sliding
from repro.engine.oracle import oracle_results

# The shortest streams on which every workload still closes windows by the
# frontier (the overlap-64 pair buffers 3 s of a 24 s stream).
SCALE = 0.05
SPEC = run.load_spec()
NAMES = {
    0: [metric["name"] for metric in SPEC["end_to_end"]],
    1: [metric["name"] for metric in SPEC["per_layer"]],
}


@pytest.fixture(scope="module")
def reports():
    """Every workload, end to end and per layer, once for the whole module."""
    return {
        (workload.name, trace): run.run_workload(
            workload.name, seed=42, seconds=0.2, trace=trace, scale=SCALE, probes=1
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["perfbench"]
    assert "setup_s" in NAMES[0]


def test_reference_agrees_with_the_engine_oracle():
    workload = BY_NAME["tree_close_ov64"]
    elements = generate(workload, seed=7, scale=SCALE).elements[:1500]
    reference = compute_reference(elements, *workload.window)
    oracle = oracle_results(elements, sliding(*workload.window), make_aggregate("sum"))
    assert len(oracle) == len(reference.windows)
    for (key, window), (value, count) in oracle.items():
        ours, our_count = reference.windows[reference.slot(key, window.start)]
        assert our_count == count
        assert ours == pytest.approx(value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_correct_with_the_declared_names(reports, workload, trace):
    report = reports[workload, trace]
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted >= 1
    assert list(report.metrics) and sorted(report.metrics) == sorted(NAMES[trace])
    assert all(math.isfinite(value) for value in report.metrics.values())
    if trace == 0:
        assert all(value > 0 for value in report.metrics.values())


def test_emit_lag_reads_scalar_batched_and_deferred(reports):
    lag = {w.name: reports[w.name, 0].metrics["emit_lag_p99_elements"] for w in WORKLOADS}
    assert lag["naive_ingest_aqk"] == 1.0 and lag["burst_adapt_tree"] == 1.0
    assert 1.0 < lag["tree_close_ov64"] <= BY_NAME["tree_close_ov64"].batch_size
    elements = reports["sharded_proc2_ov64", 0].notes["elements"]
    assert lag["sharded_proc2_ov64"] > 0.5 * elements


def test_overlap64_pair_emits_equal_values_and_is_exact(reports):
    tree, sharded = reports["tree_close_ov64", 0], reports["sharded_proc2_ov64", 0]
    assert tree.notes["values_digest"] == sharded.notes["values_digest"]
    for report in (tree, sharded):
        assert report.metrics["theta_ok_frac"] == 1.0


def test_layers_apply_where_they_exist(reports):
    sharded = reports["sharded_proc2_ov64", 1].metrics
    single = reports["tree_close_ov64", 1].metrics
    assert sharded["parallel.deferred_frac"] == 1.0 and sharded["process_pool.chunks"] > 0
    assert sharded["process_pool.pickles_per_chunk"] <= 2
    assert single["parallel.feed_s"] == 0 and single["buffer.pushes"] == single["streams.elements"]
    assert single["aggregates.merge_calls"] == sharded["aggregates.merge_calls"]
    assert single["pipeline.wall_latency_p99_ms"] > 0
    assert (ROOT / "perfbench" / "out" / "tree_close_ov64.spans.jsonl").exists()


def test_exact_metrics_repeat_for_a_seed_and_follow_the_seed(reports):
    def exact(report):
        return [report.metrics[name] for name in suite.EXACT_METRICS]

    first = reports["naive_ingest_aqk", 0]
    again = run.run_workload("naive_ingest_aqk", 42, 0.0, 0, SCALE, probes=1)
    other = run.run_workload("naive_ingest_aqk", 43, 0.0, 0, SCALE, probes=1)
    assert exact(again) == exact(first)
    assert exact(other) != exact(first)


def test_a_corrupted_result_raises_failed_ops_and_the_exit_code(monkeypatch, capsys):
    genuine = measure.run_once

    def corrupting(workload, inputs, operator, source=None):
        output = genuine(workload, inputs, operator, source)
        first = output.results[0]
        output.results[0] = dataclasses.replace(first, value=first.value + 1.0)
        return output

    monkeypatch.setattr(measure, "run_once", corrupting)
    args = argparse.Namespace(
        workload="tree_close_ov64", seed=42, seconds=0.0, trace=1, scale=SCALE
    )
    assert run.main(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_score_counts_missing_duplicate_and_nonfinite_windows():
    workload = BY_NAME["tree_close_ov64"]
    inputs = generate(workload, seed=3, scale=SCALE)
    reference = compute_reference(inputs.elements, *workload.window)
    with measure.Bench(workload, inputs) as bench:
        results = measure.run_once(workload, inputs, bench.build()).results
    assert score(results, reference, 1e-9, True).failed == 0
    assert score(results[1:], reference, 1e-9, True).failed == 1
    assert score(results + results[:1], reference, 1e-9, True).failed == 1
    broken = [dataclasses.replace(results[0], value=math.nan)] + results[1:]
    assert score(broken, reference, 1e-9, True).failed == 1


def test_process_pool_children_are_closed_on_error_paths(monkeypatch):
    def explode(self, expected):
        raise RuntimeError("memory pass blew up")

    monkeypatch.setattr(measure.Bench, "memory_pass", explode)
    with pytest.raises(RuntimeError):
        run.run_workload("sharded_proc2_ov64", 42, 0.0, 0, SCALE, probes=1)
    assert multiprocessing.active_children() == []


def test_aa_comparison_flags_bounds_and_exact_metrics():
    def one(throughput, latency):
        metrics = dict.fromkeys(NAMES[0], 1.0)
        metrics.update(throughput_eps=throughput, latency_sim_mean_s=latency)
        return {"naive_ingest_aqk": {0: {"metrics": metrics}}}

    assert suite.compare_sets(one(100.0, 2.0), one(101.0, 2.0), SPEC) == []
    beyond = suite.compare_sets(one(100.0, 2.0), one(50.0, 2.0), SPEC)
    assert len(beyond) == 1 and "throughput_eps" in beyond[0]
    inexact = suite.compare_sets(one(100.0, 2.0), one(100.0, 2.0 + 1e-12), SPEC)
    assert len(inexact) == 1 and "EXACT" in inexact[0]


# Runs its arguments as a command while being the "child subreaper" (prctl
# 36): every descendant of the command that outlives it, or that it never
# waited for, becomes this script's child and is counted on the last line.
COUNT_ORPHANS = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
code = subprocess.run(sys.argv[1:]).returncode
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print()
print(code, orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("trace", [0, 1])
def test_the_sharded_command_leaves_no_process_behind(trace):
    # Not even for the instant the resource tracker of a spawn pool (the
    # command's own, or a set-up probe's) takes to notice its parent is gone.
    done = subprocess.run(
        [sys.executable, "-c", COUNT_ORPHANS,
         sys.executable, "-m", "perfbench", "--workload", "sharded_proc2_ov64", "--seed", "6",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 0", done.stdout + done.stderr
    assert done.stderr == ""  # a tracker stopped too early warns of leaked semaphores


@pytest.mark.parametrize("workload,trace", [("naive_ingest_aqk", 0), ("sharded_proc2_ov64", 1)])
def test_the_command_prints_every_declared_name_and_the_result_line(workload, trace):
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    printed = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    assert printed == ["ops", "failed_ops"] + NAMES[trace]
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == NAMES[trace]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(result["metrics"][name]["unit"] == units[name] for name in NAMES[trace])


def test_without_the_package_the_command_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "naive_ingest_aqk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
