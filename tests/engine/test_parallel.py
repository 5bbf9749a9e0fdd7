"""Sharded execution: routing, per-shard runs, and the merge stage.

The merge-stage edge cases from the scaling contract (``docs/SCALING.md``)
each get a deterministic fixture: empty shards, a shard whose frontier
lags far behind, key skew sending all traffic to one shard, and the
``shards(1)`` configuration that must be bit-identical to unsharded
execution.
"""

from __future__ import annotations

import copy
import gc
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.operator import WindowResult
from repro.engine.parallel import (
    MAX_SHARDS,
    ShardExecutor,
    ShardedWindowOperator,
    ShardRunner,
    stable_shard,
)
from repro.engine.pipeline import run_pipeline
from repro.engine.process_pool import ProcessShardExecutor
from repro.engine.windows import SlidingWindowAssigner, Window
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream
from tests.conftest import make_arrived

ASSIGNER = SlidingWindowAssigner(size=4.0, slide=1.0)


def keyed_stream(keys=("a", "b", "c", "d"), duration=20.0, rate=40.0, seed=7):
    rng = np.random.default_rng(seed)
    return inject_disorder(
        generate_stream(duration=duration, rate=rate, rng=rng, keys=keys),
        ExponentialDelay(0.4),
        rng,
    )


def no_late_k(stream):
    """A K large enough that no element can ever be late."""
    return max(e.arrival_time - e.event_time for e in stream) + 1e-6


def sharded_operator(n, aggregate="mean", k=1.0, mode="naive", **kwargs):
    return ShardedWindowOperator(
        n,
        ASSIGNER,
        make_aggregate(aggregate),
        lambda: KSlackHandler(k),
        mode=mode,
        **kwargs,
    )


def canonical(results):
    return sorted(
        (
            r.key,
            r.window,
            float(r.value),
            r.count,
            r.emit_time,
            r.latency,
            r.revision,
            r.flushed,
        )
        for r in results
    )


def value_map(results):
    return {(r.key, r.window): (float(r.value), r.count) for r in results}


# --------------------------------------------------------------------- #
# routing


def test_stable_shard_is_deterministic_and_in_range():
    for key in ("a", "sensor-17", 42, 3.25, ("a", 1)):
        first = stable_shard(key, 8)
        assert 0 <= first < 8
        assert all(stable_shard(key, 8) == first for _ in range(5))


def test_default_routing_groups_by_element_key():
    stream = keyed_stream()
    recorder = TraceRecorder()
    run_pipeline(stream, sharded_operator(4), trace=recorder)
    ingests = list(recorder.of_kind("shard.ingest"))
    assert sum(e.fields["count"] for e in ingests) == len(stream)
    # Four keys hash onto at most four shards.
    assert len(ingests) <= 4


def test_custom_key_function_controls_routing():
    stream = keyed_stream()
    recorder = TraceRecorder()
    operator = sharded_operator(4, key_fn=lambda e: "same")
    run_pipeline(stream, operator, trace=recorder)
    ingests = list(recorder.of_kind("shard.ingest"))
    assert len(ingests) == 1  # key skew: all traffic on one shard
    assert ingests[0].fields["count"] == len(stream)


def test_unkeyed_elements_round_robin_across_all_shards():
    stream = keyed_stream(keys=None)
    assert all(e.key is None for e in stream)
    recorder = TraceRecorder()
    operator = sharded_operator(4)
    run_pipeline(stream, operator, trace=recorder)
    ingests = {e.fields["shard"]: e.fields["count"] for e in recorder.of_kind("shard.ingest")}
    assert set(ingests) == {0, 1, 2, 3}
    assert max(ingests.values()) - min(ingests.values()) <= 1


# --------------------------------------------------------------------- #
# shards(1) and key skew are bit-identical to unsharded execution


@pytest.mark.parametrize("mode", ["naive", "tree"])
@pytest.mark.parametrize("aggregate", ["mean", "count"])
def test_single_shard_is_bit_identical_to_unsharded(mode, aggregate):
    stream = keyed_stream()
    unsharded = WindowAggregateOperator(
        ASSIGNER, make_aggregate(aggregate), KSlackHandler(1.0), mode=mode
    )
    base = run_pipeline(stream, unsharded)
    out = run_pipeline(stream, sharded_operator(1, aggregate, mode=mode))
    assert canonical(out.results) == canonical(base.results)
    # Late-drop accounting matches too: one shard sees the whole stream.
    assert out.metrics.late_dropped == base.metrics.late_dropped


def test_key_skew_single_hot_shard_is_bit_identical_to_unsharded():
    stream = keyed_stream()
    base = run_pipeline(
        stream,
        WindowAggregateOperator(
            ASSIGNER, make_aggregate("mean"), KSlackHandler(1.0), mode="naive"
        ),
    )
    skewed = sharded_operator(8, key_fn=lambda e: "hot")
    out = run_pipeline(stream, skewed)
    assert canonical(out.results) == canonical(base.results)


# --------------------------------------------------------------------- #
# merge-stage edge cases


def test_empty_shards_are_excluded_from_the_merge_gate():
    # Two keys over 16 shards: at least 14 shards never see an element and
    # must neither stall the frontier gate nor flush everything.
    stream = keyed_stream(keys=("a", "b"))
    k = no_late_k(stream)
    base = run_pipeline(
        stream,
        WindowAggregateOperator(
            ASSIGNER, make_aggregate("mean"), KSlackHandler(k), mode="naive"
        ),
    )
    out = run_pipeline(stream, sharded_operator(16, k=k))
    # Keyed groups live in exactly one shard: values are bitwise equal.
    assert value_map(out.results) == value_map(base.results)
    assert any(not r.flushed for r in out.results)


def test_empty_stream_finishes_empty():
    operator = sharded_operator(4)
    out = run_pipeline([], operator)
    assert out.results == []
    assert operator.handler.frontier == float("-inf")


def test_lagging_shard_gates_the_merge_frontier():
    # Shard "lead" sees event times up to 12; shard "lag" stops at 3.
    # Windows ending after the lag shard's frontier (3 - 1 = 2.0) must be
    # flushed even though the lead shard closed them long ago.
    elements = make_arrived(
        [(t, t, 1.0) for t in (0.5, 1.5, 2.5, 3.0)]  # the lag population
        + [(t, t, 1.0) for t in (4.0, 6.0, 8.0, 10.0, 12.0)]  # the lead
    )
    operator = ShardedWindowOperator(
        2,
        ASSIGNER,
        make_aggregate("count"),
        lambda: KSlackHandler(1.0),
        key_fn=lambda e: "lag" if e.event_time < 3.5 else "lead",
    )
    out = run_pipeline(elements, operator)
    lag_frontier = 3.0 - 1.0
    for result in out.results:
        if result.window.end <= lag_frontier:
            assert not result.flushed, result
        else:
            assert result.flushed, result
    assert operator.handler.frontier == pytest.approx(lag_frontier)


def test_merged_emit_time_is_the_last_shards_frontier_crossing():
    # Unkeyed round-robin over 2 shards.  Window [0, 2) closes on shard 0
    # when element (4.5) arrives at 6.0 and on shard 1 when (3.5) arrives
    # at 5.0; the merged window must be stamped with the *later* crossing.
    elements = make_arrived(
        [
            (0.5, 1.0, 1.0),  # -> shard 0
            (1.5, 2.0, 1.0),  # -> shard 1
            (3.5, 5.0, 1.0),  # -> shard 0: frontier 2.5 at arrival 5.0
            (4.5, 6.0, 1.0),  # -> shard 1: frontier 3.5 at arrival 6.0
        ]
    )
    operator = ShardedWindowOperator(
        2,
        SlidingWindowAssigner(size=2.0, slide=2.0),
        make_aggregate("count"),
        lambda: KSlackHandler(1.0),
    )
    out = run_pipeline(elements, operator)
    window_02 = [r for r in out.results if r.window.start == 0.0][0]
    assert not window_02.flushed
    assert window_02.emit_time == pytest.approx(6.0)
    assert window_02.count == 2
    assert window_02.latency == pytest.approx(6.0 - 2.0)


def test_cross_shard_groups_merge_accumulators():
    stream = keyed_stream(keys=None)  # unkeyed: every window spans shards
    k = no_late_k(stream)
    base = run_pipeline(
        stream,
        WindowAggregateOperator(
            ASSIGNER, make_aggregate("count"), KSlackHandler(k), mode="naive"
        ),
    )
    recorder = TraceRecorder()
    out = run_pipeline(stream, sharded_operator(4, "count", k=k), trace=recorder)
    assert value_map(out.results) == value_map(base.results)  # exact: bitwise
    merges = list(recorder.of_kind("shard.merge"))
    assert merges and max(e.fields["shards"] for e in merges) > 1


def test_cross_shard_mean_within_declared_drift():
    stream = keyed_stream(keys=None)
    k = no_late_k(stream)
    base = run_pipeline(
        stream,
        WindowAggregateOperator(
            ASSIGNER, make_aggregate("mean"), KSlackHandler(k), mode="naive"
        ),
    )
    out = run_pipeline(stream, sharded_operator(6, "mean", k=k))
    base_map, out_map = value_map(base.results), value_map(out.results)
    assert set(base_map) == set(out_map)
    for group, (value, count) in base_map.items():
        merged_value, merged_count = out_map[group]
        assert merged_count == count
        assert merged_value == pytest.approx(value, rel=1e-9)


class RecordingExecutor(ShardExecutor):
    """The in-process executor, keeping a copy of the runs it hands to the
    merge (which folds accumulators in place)."""

    def collect(self):
        runs = super().collect()
        self.runs = copy.deepcopy(runs)
        return runs


def reference_merge(runs, aggregate, last_arrival):
    """The merge contract, spelled out over re-materialised shard results.

    Group every shard result by ``(key, window)``; a group closes at the
    arrival at which the last shard's frontier reached its end (two
    bisects per group), else it is flushed at the last arrival; a group
    held by several shards folds their accumulators in shard order.
    """
    groups = {}
    for run in runs:
        accumulators = run.accumulators or [None] * len(run.ends)
        for row, key_id in enumerate(run.key_index):
            slot = (run.keys[key_id], Window(run.starts[row], run.ends[row]))
            groups.setdefault(slot, []).append(
                (run.values[row], run.counts[row], accumulators[row])
            )
    min_frontier = min(run.final_frontier for run in runs)
    merged = []
    for (key, window), records in groups.items():
        closed = window.end <= min_frontier
        emit_time = last_arrival
        if closed:
            emit_time = max(
                run.frontier_arrivals[bisect_left(run.frontier_values, window.end)]
                for run in runs
            )
        value = records[0][0]
        if len(records) > 1:
            folded = records[0][2]
            for record in records[1:]:
                folded = aggregate.merge(folded, record[2])
            value = aggregate.result(folded)
        merged.append(
            WindowResult(
                key, window, value, sum(record[1] for record in records),
                emit_time, emit_time - window.end, flushed=not closed,
            )
        )
    merged.sort(
        key=lambda r: (r.emit_time, r.flushed, r.window.end, r.window.start, repr(r.key))
    )
    return merged


def split_by_seq(element):
    return element.seq % 3


@pytest.mark.parametrize(
    "keys, key_fn",
    [
        (("a", "b", "c"), split_by_seq),  # a custom routing key splits every key
        (None, None),  # None keys are dealt round-robin
        (("a", None, "b", None), None),  # only the None group can split
    ],
)
@pytest.mark.parametrize("aggregate", ["mean", "distinct", "stddev"])
def test_merge_reads_columns_like_the_reference_merge(keys, key_fn, aggregate):
    stream = keyed_stream(keys=keys, duration=12.0)
    executor = RecordingExecutor()
    executor.chunk_size = 32
    operator = sharded_operator(3, aggregate, k=0.3, key_fn=key_fn, executor=executor)
    results = run_pipeline(stream, operator).results
    runs = executor.runs
    assert len(runs) > 1
    # Accumulators travel exactly for the rows whose group can span shards.
    for run in runs:
        for row, accumulator in enumerate(run.accumulators or [None] * len(run.ends)):
            splittable = key_fn is not None or run.keys[run.key_index[row]] is None
            assert (accumulator is not None) == splittable
    expected = reference_merge(runs, make_aggregate(aggregate), stream[-1].arrival_time)
    assert results == expected  # values, emit times, flushed flags, order
    emit_times = [r.emit_time for r in results]
    assert len(set(emit_times)) < len(emit_times)  # ties, broken canonically
    assert any(r.flushed for r in results) and not all(r.flushed for r in results)
    if keys != ("a", None, "b", None):
        assert max(r.count for r in results) > max(max(run.counts) for run in runs)


def test_finish_peaks_near_what_it_leaves_behind():
    # The merge builds each result once, straight from the runs' columns:
    # no result-sized list of row tuples to sort, so what finish() holds
    # at its peak is little more than the results it returns (a ratio, so
    # the interpreter's object sizes cancel; 1.9 before the walk by end).
    stream = keyed_stream(keys=tuple("abcdefghijklmnop"), duration=100.0, rate=100.0)
    operator = ShardedWindowOperator(
        2,
        SlidingWindowAssigner(size=4.0, slide=0.25),
        make_aggregate("sum"),
        lambda: KSlackHandler(1.0),
        mode="tree",
    )
    operator.process_many(stream)
    gc.collect()
    tracemalloc.start()
    try:
        results = operator.finish()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) > 5_000
    assert peak <= 1.5 * live


def aqk_handler():
    return AQKSlackHandler(
        target=QualityTarget(0.05), aggregate=make_aggregate("mean"), window_size=4.0
    )


@pytest.mark.parametrize("make_handler", [lambda: KSlackHandler(0.5), aqk_handler])
@pytest.mark.parametrize("mode", ["naive", "tree"])
def test_runner_batched_feed_matches_an_element_by_element_run(make_handler, mode):
    # The runner drives process_many per chunk and reads its frontier
    # timeline off the operator's log; the reference drives process per
    # element and reads the handler's frontier after every call.
    stream = keyed_stream(duration=40.0)
    handler = make_handler()
    operator = WindowAggregateOperator(ASSIGNER, make_aggregate("mean"), handler, mode=mode)
    scalar, arrivals, frontiers = [], [], []
    for element in stream:
        scalar.extend(operator.process(element))
        if not frontiers or handler.frontier > frontiers[-1]:
            arrivals.append(element.arrival_time)
            frontiers.append(handler.frontier)
    scalar.extend(operator.finish())

    runner = ShardRunner(0, mode, ASSIGNER, make_aggregate("mean"), make_handler())
    for index in range(0, len(stream), 64):
        runner.feed(stream[index : index + 64])
    run = runner.finish()
    assert list(run.frontier_arrivals) == arrivals
    assert list(run.frontier_values) == frontiers
    assert run.final_frontier == frontiers[-1]
    assert [
        (run.keys[key_id], start, end, value, count)
        for key_id, start, end, value, count in zip(
            run.key_index, run.starts, run.ends, run.values, run.counts
        )
    ] == [(r.key, r.window.start, r.window.end, r.value, r.count) for r in scalar]
    assert list(run.observed_errors) == operator.stats.observed_errors
    assert run.late_dropped == operator.stats.late_dropped
    assert run.accumulators == []  # keyed groups, default routing
    if make_handler is aqk_handler:
        assert len(handler.adaptations) > 1


def test_canonical_output_order_is_deterministic():
    stream = keyed_stream()
    first = run_pipeline(stream, sharded_operator(4)).results
    second = run_pipeline(stream, sharded_operator(4)).results
    assert canonical(first) == canonical(second)
    assert [
        (r.emit_time, r.flushed, r.window.end, r.window.start) for r in first
    ] == sorted(
        (r.emit_time, r.flushed, r.window.end, r.window.start) for r in first
    )


def test_batched_driving_matches_scalar():
    stream = keyed_stream()
    scalar = run_pipeline(stream, sharded_operator(4))
    batched = run_pipeline(stream, sharded_operator(4), batch_size=64)
    assert canonical(scalar.results) == canonical(batched.results)


def test_finish_is_idempotent():
    stream = keyed_stream()
    operator = sharded_operator(2)
    for element in stream:
        operator.process(element)
    first = operator.finish()
    assert first
    assert operator.finish() == []


# --------------------------------------------------------------------- #
# sanitizers run per shard and stay clean


@pytest.mark.parametrize("kind", ["stream", "numeric"])
@pytest.mark.parametrize("mode", ["naive", "tree"])
def test_sharded_execution_is_sanitizer_clean(kind, mode):
    stream = keyed_stream(duration=10.0)
    out = run_pipeline(stream, sharded_operator(4, mode=mode), sanitize=kind)
    reference = run_pipeline(stream, sharded_operator(4, mode=mode))
    assert canonical(out.results) == canonical(reference.results)


def test_unknown_sanitizer_kind_is_rejected():
    stream = keyed_stream(duration=5.0)
    with pytest.raises(ConfigurationError):
        run_pipeline(stream, sharded_operator(2), sanitize="bogus")


# --------------------------------------------------------------------- #
# observability


def test_trace_records_shard_ingest_and_merge():
    stream = keyed_stream()
    recorder = TraceRecorder()
    out = run_pipeline(stream, sharded_operator(4), trace=recorder)
    ingested = sum(e.fields["count"] for e in recorder.of_kind("shard.ingest"))
    assert ingested == len(stream)
    merges = list(recorder.of_kind("shard.merge"))
    assert len(merges) == len(out.results)
    by_group = {
        (e.fields["key"], e.fields["start"], e.fields["end"]): e.fields["count"]
        for e in merges
    }
    for result in out.results:
        group = (result.key, result.window.start, result.window.end)
        assert by_group[group] == result.count


def test_registry_collects_per_shard_metrics():
    stream = keyed_stream()
    registry = MetricsRegistry()
    run_pipeline(stream, sharded_operator(4), registry=registry)
    snapshot = registry.snapshot()
    shard_elements = [
        value
        for name, value in snapshot.items()
        if name.startswith("shard.") and name.endswith(".elements_in")
    ]
    assert sum(shard_elements) == len(stream)


def test_handler_view_reports_combined_state():
    stream = keyed_stream()
    operator = sharded_operator(4, k=2.0)
    view = operator.handler
    assert view.describe() == "sharded(4)xk-slack(K=2s)"
    assert view.buffered_count() == 0
    for element in stream:
        operator.process(element)
    assert view.buffered_count() == len(stream)  # routed, not yet executed
    assert view.frontier == float("-inf")
    operator.finish()
    assert view.buffered_count() == 0
    assert view.released_count() == len(stream)
    assert view.current_slack == pytest.approx(2.0)
    assert view.frontier > float("-inf")
    assert view.next_adaptation_offset(stream, 0, len(stream)) is None


# --------------------------------------------------------------------- #
# executor seam and validation


def test_serial_executor_matches_threads():
    # "serial" names the in-process executor, which is also what a sharded
    # operator runs on when no executor is given.
    stream = keyed_stream()
    default = run_pipeline(stream, sharded_operator(4))
    serial = run_pipeline(stream, sharded_operator(4, executor=ShardExecutor()))
    assert canonical(default.results) == canonical(serial.results)


def test_in_process_results_do_not_depend_on_chunk_size():
    stream = keyed_stream()
    small_chunks = ShardExecutor()
    small_chunks.chunk_size = 7
    recorder = TraceRecorder()
    chunked = run_pipeline(
        stream, sharded_operator(4, executor=small_chunks), trace=recorder
    )
    assert len(list(recorder.of_kind("shard.dispatch"))) > len(stream) // 8
    whole = run_pipeline(stream, sharded_operator(4))
    assert canonical(chunked.results) == canonical(whole.results)
    assert chunked.metrics.late_dropped == whole.metrics.late_dropped


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_thread_executor_rejects_invalid_max_workers(bad):
    # The thread pool and its worker cap are gone; the in-process
    # executor that took its place has no options at all.
    with pytest.raises(TypeError):
        ShardExecutor(max_workers=bad)


@pytest.mark.parametrize("kind", ["serial", "process"])
def test_elements_after_finish_are_late_not_an_error(kind):
    stream = keyed_stream(duration=5.0)
    executor = ProcessShardExecutor(max_workers=1) if kind == "process" else None
    try:
        operator = sharded_operator(2, executor=executor)
        for element in stream:
            operator.process(element)
        emitted = operator.finish()
        assert emitted
        dropped = operator.stats.late_dropped
        assert operator.process(stream[-1]) == []
        assert operator.process_many(stream[:3]) == []
        assert operator.stats.late_dropped == dropped + 4
        assert operator.stats.elements_in == len(stream) + 4
        assert operator.finish() == []
    finally:
        if executor is not None:
            executor.close()


def test_worker_exception_propagates_to_the_coordinator():
    class BoomAggregate:
        __numeric__ = "exact"
        name = "boom"
        error_model_kind = "additive_mass"

        def create(self):
            return []

        def add(self, accumulator, value):
            raise RuntimeError("boom in shard worker")

        def add_many(self, accumulator, values):
            raise RuntimeError("boom in shard worker")

        def result(self, accumulator):
            return 0.0

        def merge(self, accumulator, other):
            return accumulator

        def describe(self):
            return "boom"

    stream = keyed_stream(duration=5.0)
    operator = ShardedWindowOperator(
        2, ASSIGNER, BoomAggregate(), lambda: KSlackHandler(1.0)
    )
    with pytest.raises(RuntimeError, match="boom in shard worker"):
        run_pipeline(stream, operator)


@pytest.mark.parametrize("bad", [0, -1, MAX_SHARDS + 1, 2.0, True])
def test_invalid_shard_counts_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        ShardedWindowOperator(
            bad, ASSIGNER, make_aggregate("mean"), lambda: KSlackHandler(1.0)
        )


def test_aggregate_without_numeric_discipline_is_rejected():
    class Undeclared:
        name = "mystery"
        error_model_kind = "additive_mass"

    with pytest.raises(ConfigurationError):
        ShardedWindowOperator(
            2, ASSIGNER, Undeclared(), lambda: KSlackHandler(1.0)
        )
