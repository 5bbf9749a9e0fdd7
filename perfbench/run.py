"""One workload, one run: the mode the benchmark driver calls.

``python -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs the
traced, paced and standalone layer passes for the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field

from repro import make_aggregate

from perfbench import OUT_DIR, ROOT, measure
from perfbench.measure import Bench
from perfbench.proxies import CountingAggregate, SpanSummary
from perfbench.reference import Reference, compute_reference, score
from perfbench.workloads import AGGREGATE, BY_NAME, generate

#: Fresh-interpreter set-up probes per run (at most the five slots
#: ``end_to_end`` has); ``setup_s`` is their median.
SETUP_PROBES = 5


@functools.cache
def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units() -> dict[str, str]:
    spec = load_spec()
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Report:
    """Everything one run measured."""

    workload: str
    trace: int
    attempted: int
    failed: int
    #: Broken invariants other than failed operations; empty when correct.
    problems: list[str]
    metrics: dict[str, float]
    #: Ungated context printed beside the metrics (sample counts, quartiles).
    notes: dict[str, object] = field(default_factory=dict)
    fingerprint: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def fingerprint(seed: int, scale: float) -> dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
        "git_commit": commit,
    }


def _observe(bench: Bench, reference: Reference, record: bool = False):
    """The observed pass: one run under proxies, scored against the reference.

    Every later pass must reproduce its results bit for bit.  Returns
    ``(proxied, results, scored, problems)``.
    """
    workload = bench.workload
    _, proxied, observed = bench.proxied_pass(record)
    scored = score(observed.results, reference, workload.check_theta, workload.exact)
    if scored.latency_samples == 0:
        raise measure.BenchError(
            "no window was closed by the frontier: the stream is too short, raise --scale"
        )
    problems = []
    if workload.exact and scored.theta_violation_frac != 0.0:
        problems.append(f"exact workload has theta_violation_frac={scored.theta_violation_frac}")
    return proxied, observed.results, scored, problems


def end_to_end(bench: Bench, reference: Reference, seconds: float, probes: int) -> Report:
    """The eight end-to-end metrics, tracing off."""
    workload, inputs = bench.workload, bench.inputs
    # The observed pass doubles as the warm-up; its operator proxy sees which
    # call handed each result back (the emit lag).
    proxied, expected, scored, problems = _observe(bench, reference)
    setups: list[float] = []

    def probe() -> None:
        if len(setups) < probes:
            setups.append(measure.setup_probe(workload))

    # Probes and repeat blocks alternate so both sample the whole run.
    probe()
    repeats = bench.timed_block(seconds, expected)
    probe()
    peak_bytes = bench.memory_pass(expected)
    probe()
    repeats += bench.timed_block(seconds, expected)
    probe()
    repeats += bench.timed_block(seconds, expected)
    probe()
    walls = [measure.wall_of(marks) for marks in repeats]
    n = len(inputs.elements)
    return Report(
        workload=workload.name, trace=0,
        attempted=scored.attempted, failed=scored.failed, problems=problems,
        metrics={
            "setup_s": statistics.median(setups),
            "throughput_eps": n / measure.undisturbed_wall(repeats),
            "latency_sim_mean_s": scored.latency_mean_s,
            "latency_sim_p99_s": scored.latency_p99_s,
            "accuracy_mean": 1.0 - scored.error_mean,
            "theta_ok_frac": 1.0 - scored.theta_violation_frac,
            "emit_lag_p99_elements": measure.emit_lag_p99(
                proxied.operator, expected, inputs.arrivals
            ),
            "state_peak_mb": peak_bytes / 1e6,
        },
        notes={
            "elements": n,
            "repeats": len(walls),
            "throughput_eps_quartiles": [
                n / wall for wall in reversed(statistics.quantiles(walls, n=4))
            ],
            "repeat_walls_s": walls,
            "latency_samples": scored.latency_samples,
            "setup_samples_s": setups,
            "values_digest": scored.values_digest,
        },
    )


def per_layer(bench: Bench, reference: Reference, names: list[str]) -> Report:
    """The per-layer metrics: traced pass, paced pass, standalone timings."""
    workload, inputs = bench.workload, bench.inputs
    elements = inputs.elements
    # Here the observed pass also carries the exact counters (aggregate
    # folds, buffer thresholds, dispatched chunks); no timing is read off it.
    recorded, expected, scored, problems = _observe(bench, reference, record=True)

    # Untraced and traced passes interleaved; the fastest of each is kept.
    untraced, builds, traced = [], [], []
    for _ in range(measure.TRACE_PAIRS):
        marks, build_s = bench.untraced_pass(expected)
        untraced.append(measure.wall_of(marks))
        builds.append(build_s)
        log, proxied, output = bench.proxied_pass()
        measure.require_identical(output, expected, "traced")
        traced.append((log.ends[-1] - log.starts[-1], log, proxied, output))
    traced_wall, log, proxied, output = min(traced, key=lambda item: item[0])
    untraced_wall = min(untraced)
    metrics = dict.fromkeys(names, 0)  # a layer the workload lacks reads 0
    summary = SpanSummary(log)
    layer, broken = measure.layer_metrics(summary, proxied, output, untraced_wall)
    metrics.update(layer)
    problems.extend(broken)
    measure.write_spans(log, summary.parents, workload.name)

    out_of_order_frac, delay_p99_s = measure.disorder_stats(elements)
    metrics.update({
        "streams.generate_s": inputs.generate_s,
        "streams.elements": len(elements),
        "streams.out_of_order_frac": out_of_order_frac,
        "streams.delay_p99_s": delay_p99_s,
        "reference.compute_s": reference.compute_s,
        "queries.build_s": statistics.median(builds),
        "quality.error_mean": scored.error_mean,
        "quality.theta_violation_frac": scored.theta_violation_frac,
    })

    counting = recorded.aggregate
    if workload.shards:
        # The workers' folds are counted by replaying their shards here; the
        # observed pass's own counter saw only the coordinator's merge stage.
        seconds, sizes = measure.replay_shards(bench, make_aggregate(AGGREGATE))
        counting = CountingAggregate(make_aggregate(AGGREGATE))
        measure.replay_shards(bench, counting)
        counting.merge_calls += recorded.aggregate.merge_calls
        metrics.update({
            "parallel.worker_max_s": max(seconds),
            "parallel.shard_skew": max(sizes) / (sum(sizes) / len(sizes)),
            "process_pool.spawn_s": measure.pool_spawn_cost(bench),
        })
        metrics.update(measure.codec_costs(recorded.executor.dispatched))
    else:
        handler = recorded.handler
        replay = measure.replay_buffer(elements, handler.sizes, handler.thresholds)
        metrics.update(replay)
        metrics["buffer.share"] = replay["buffer.replay_s"] / untraced_wall
        metrics["handler.self_s"] = metrics["handler.busy_s"] - replay["buffer.replay_s"]
        metrics.update(measure.checkpoint_at_half(bench))
        metrics["operator.patch_count"] = getattr(recorded.operator.inner, "patch_count", 0)
    add_ns, merge_ns, add_many_ns = measure.aggregate_costs(
        [element.value for element in elements[:10_000]]
    )
    metrics.update({
        "aggregates.add_calls": counting.add_calls,
        "aggregates.add_many_values": counting.add_many_values,
        "aggregates.merge_calls": counting.merge_calls,
        "aggregates.result_calls": counting.result_calls,
        "aggregates.add_ns": add_ns,
        "aggregates.merge_ns": merge_ns,
        "aggregates.est_s": (
            counting.add_calls * add_ns
            + counting.merge_calls * merge_ns
            + counting.add_many_values * add_many_ns
        ) / 1e9,
    })
    if workload.paced:
        metrics.update(bench.paced_pass(expected))
    return Report(
        workload=workload.name, trace=1,
        attempted=scored.attempted, failed=scored.failed, problems=problems,
        metrics=metrics,
        notes={
            "elements": len(elements),
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "values_digest": scored.values_digest,
        },
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: int, scale: float,
    probes: int = SETUP_PROBES,
) -> Report:
    """Generate ``name``'s inputs from ``seed`` and measure one run."""
    spec = load_spec()
    section = "per_layer" if trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]
    workload = BY_NAME[name]
    inputs = generate(workload, seed, scale)
    reference = compute_reference(inputs.elements, *workload.window)
    with Bench(workload, inputs) as bench:
        if trace:
            report = per_layer(bench, reference, names)
        else:
            report = end_to_end(bench, reference, seconds, probes)
    if sorted(report.metrics) != sorted(names):
        raise measure.BenchError(
            f"measured metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(report.metrics) ^ set(names))}"
        )
    report.fingerprint = fingerprint(seed, scale)
    return report


def emit(report: Report) -> None:
    """Print the report (last line: the driver's JSON object) and keep a copy."""
    units = metric_units()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{report.workload}.trace{report.trace}.json", "w") as handle:
        json.dump(asdict(report) | {"correct": report.correct}, handle, indent=1)
    print(f"# workload {report.workload}  trace {report.trace}")
    for key, value in report.fingerprint.items():
        print(f"# {key}: {value}")
    for key, value in report.notes.items():
        print(f"# {key}: {value}")
    for problem in report.problems:
        print(f"# PROBLEM: {problem}")
    print(f"ops {report.attempted} count")
    print(f"failed_ops {report.failed} count")
    for name, value in report.metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))


def main(args) -> int:
    """Driver mode; exits non-zero on any correctness failure."""
    started = time.perf_counter()
    try:
        report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except measure.BenchError as error:
        print(f"perfbench: {error}")
        return 1
    report.notes["run_wall_s"] = time.perf_counter() - started
    emit(report)
    return 0 if report.correct else 1
