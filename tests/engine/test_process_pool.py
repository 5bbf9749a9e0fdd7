"""Process-pool shard execution: codec, parity, faults, telemetry.

Module-level fault classes are required here: spawn-started workers
unpickle everything crossing the process boundary by module path, so a
poison aggregate defined inside a test function could never reach the
worker.  The shared module-scoped executor keeps the spawn cost (the
expensive part of every test) paid once.
"""

from __future__ import annotations

import os
import pickletools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import CountAggregate, make_aggregate
from repro.engine import checkpoint
from repro.engine.checkpoint import STATE_MAGIC
from repro.engine.handlers import KSlackHandler
from repro.engine.parallel import (
    DEFAULT_CHUNK_SIZE,
    ShardExecutor,
    ShardRunner,
    ShardSession,
    ShardSpec,
    ShardedWindowOperator,
)
from repro.engine.pipeline import run_pipeline
from repro.engine.process_pool import (
    CODEC_STATS,
    ProcessShardExecutor,
    decode_chunk,
    decode_run,
    encode_chunk,
    encode_run,
)
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError, QueryError, ShardWorkerError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.conftest import nan_equal

ASSIGNER = SlidingWindowAssigner(size=4.0, slide=1.0)


def keyed_stream(keys=("a", "b", "c", "d"), duration=15.0, rate=30.0, seed=7):
    rng = np.random.default_rng(seed)
    return inject_disorder(
        generate_stream(duration=duration, rate=rate, rng=rng, keys=keys),
        ExponentialDelay(0.4),
        rng,
    )


def no_late_k(stream):
    """A K large enough that no element can ever be late."""
    return max(e.arrival_time - e.event_time for e in stream) + 1e-6


def sharded_operator(n, executor, aggregate="mean", k=1.0, mode="naive", **kwargs):
    return ShardedWindowOperator(
        n,
        ASSIGNER,
        make_aggregate(aggregate),
        lambda: KSlackHandler(k),
        mode=mode,
        executor=executor,
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


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by every test in this module."""
    executor = ProcessShardExecutor(max_workers=2, chunk_size=64)
    yield executor
    executor.close()


# --------------------------------------------------------------------- #
# chunk codec


def test_codec_round_trips_float_values_and_keys():
    elements = keyed_stream(duration=3.0)
    assert decode_chunk(encode_chunk(elements)) == elements


def test_codec_round_trips_none_keys_and_none_arrivals():
    elements = [
        StreamElement(event_time=0.5, value=1.0, seq=0),
        StreamElement(event_time=1.0, value=2.5, key=None, arrival_time=1.5, seq=1),
    ]
    assert decode_chunk(encode_chunk(elements)) == elements


def test_codec_round_trips_non_float_values():
    elements = [
        StreamElement(event_time=float(i), value=value, key="k", arrival_time=float(i), seq=i)
        for i, value in enumerate([1, "text", (2, 3), 4.5])
    ]
    assert decode_chunk(encode_chunk(elements)) == elements


def test_codec_never_pickles_per_element():
    CODEC_STATS.reset()
    elements = keyed_stream(duration=10.0)
    assert len(elements) > 100
    encode_chunk(elements)
    assert CODEC_STATS.chunks_encoded == 1
    assert CODEC_STATS.elements_encoded == len(elements)
    # float values ride the array fast path; only the key table pickles.
    assert CODEC_STATS.pickle_calls <= 2


def test_dispatch_path_is_chunk_encoded_not_per_element(pool):
    CODEC_STATS.reset()
    stream = keyed_stream()
    operator = sharded_operator(4, pool, k=no_late_k(stream))
    run_pipeline(stream, operator)
    assert CODEC_STATS.elements_encoded == len(stream)
    # The acceptance probe: pickle calls scale with chunks, not elements.
    assert CODEC_STATS.chunks_encoded < len(stream) / 8
    assert CODEC_STATS.pickle_calls <= 2 * CODEC_STATS.chunks_encoded


# --------------------------------------------------------------------- #
# run codec (the return path)


class TallyAggregate(CountAggregate):
    """A count whose accumulator is neither a list nor a set."""

    def create(self):
        return {"n": 0}

    def add(self, accumulator, value):
        accumulator["n"] += 1

    def add_many(self, accumulator, values):
        accumulator["n"] += len(values)

    def result(self, accumulator):
        return float(accumulator["n"])

    def merge(self, accumulator, other):
        accumulator["n"] += other["n"]
        return accumulator


RUN_AGGREGATES = {
    "mean": lambda: make_aggregate("mean"),  # list accumulator
    "stddev": lambda: make_aggregate("stddev"),
    "distinct": lambda: make_aggregate("distinct"),  # set accumulator
    "tally": TallyAggregate,  # deep-copied accumulator
}

run_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0),  # event time
        st.floats(min_value=0.0, max_value=3.0),  # delay
        st.integers(min_value=0, max_value=5).map(float),  # value
        st.sampled_from(["a", "b", None]),  # key
    ),
    max_size=40,
)


@given(
    run_rows,
    st.sampled_from(sorted(RUN_AGGREGATES)),
    st.sampled_from(["naive", "tree"]),
    st.booleans(),
    st.booleans(),
)
# The late second element opens a phantom record, whose window.retire
# trace event carries emitted=nan: equal after the pickle, not identical.
@example(
    rows=[(5.0, 0.0, 0.0, "a"), (2.0, 3.0, 0.0, "a")],
    aggregate="distinct", mode="naive", split_keyed=False, traced=True,
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_codec_round_trips_every_column(rows, aggregate, mode, split_keyed, traced):
    stream = sorted(
        (
            StreamElement(event_time=t, value=v, key=key, arrival_time=t + d, seq=i)
            for i, (t, d, v, key) in enumerate(rows)
        ),
        key=StreamElement.arrival_sort_key,
    )
    session = ShardSession(
        ShardSpec(
            n_shards=1,
            mode=mode,
            assigner=ASSIGNER,
            aggregate=RUN_AGGREGATES[aggregate](),
            handler_factory=fresh_handler,
            feedback_horizon=None,
            track_feedback=True,
            sanitize=None,
            trace_enabled=traced,
            trace_detail=False,
            split_keyed=split_keyed,
        )
    )
    for index in range(0, len(stream), 16):
        session.feed(0, stream[index : index + 16], n_bytes=7)
    for run in session.finish():  # no run at all for an empty stream
        assert nan_equal(decode_run(encode_run(run)), run)
        assert len(run.ends) == len(run.key_index) == len(run.values)
        # Every window still open at stream end was flushed into the run.
        assert max(run.ends, default=0.0) > run.final_frontier
        assert bool(run.trace_events) == traced
        splittable = [
            split_keyed or run.keys[key_id] is None for key_id in run.key_index
        ]
        assert [a is not None for a in run.accumulators] == (
            splittable if any(splittable) else []
        )


def test_run_codec_round_trips_an_empty_run():
    run = ShardRunner(3, "tree", ASSIGNER, make_aggregate("sum"), KSlackHandler(1.0)).finish()
    assert len(run.ends) == 0 and run.final_frontier == float("-inf")
    assert decode_run(encode_run(run)) == run


def test_run_codec_rejects_foreign_payloads():
    with pytest.raises(ConfigurationError):
        decode_run(b"not a state snapshot")


def test_run_codec_pickles_once_whatever_the_result_count(monkeypatch):
    def run_of(duration, split_keyed):
        runner = ShardRunner(
            0, "tree", ASSIGNER, make_aggregate("mean"), KSlackHandler(1.0),
            split_keyed=split_keyed,
        )
        runner.feed(keyed_stream(duration=duration))
        return runner.finish()

    # The probe, CODEC_STATS-style: count the pickle calls encoding makes.
    calls = []
    real_dumps = checkpoint.pickle.dumps
    monkeypatch.setattr(
        checkpoint.pickle, "dumps",
        lambda *args, **kwargs: calls.append(1) or real_dumps(*args, **kwargs),
    )
    small, large = run_of(10.0, False), run_of(400.0, False)
    assert len(large.ends) > 20 * len(small.ends) > 0
    payloads = [encode_run(small), encode_run(large)]
    assert len(calls) == 2
    # No per-result object hides inside that one pickle: the payload is the
    # same opcodes around longer buffers (give or take a framing opcode).
    opcodes = [
        sum(1 for _ in pickletools.genops(payload[len(STATE_MAGIC):]))
        for payload in payloads
    ]
    assert opcodes[1] <= opcodes[0] + 4
    columns = 36 * len(large.ends) + 16 * len(large.frontier_values)
    assert len(payloads[1]) < columns + 8 * len(large.observed_errors) + 4096
    # Accumulators, when a run must carry them, are the per-result part.
    carrying = encode_run(run_of(400.0, True))
    assert len(carrying) > len(payloads[1]) + 8 * len(large.ends)


# --------------------------------------------------------------------- #
# executor parity (the shard contract across executors)


@pytest.mark.parametrize("mode", ["naive", "tree"])
def test_process_matches_serial_bit_identical(pool, mode):
    stream = keyed_stream()
    k = no_late_k(stream)
    serial_out = run_pipeline(
        stream, sharded_operator(4, ShardExecutor(), k=k, mode=mode)
    )
    process_out = run_pipeline(stream, sharded_operator(4, pool, k=k, mode=mode))
    assert canonical(process_out.results) == canonical(serial_out.results)


@pytest.mark.parametrize("aggregate", ["count", "min", "max", "distinct"])
def test_process_matches_serial_for_exact_aggregates(pool, aggregate):
    stream = keyed_stream()
    k = no_late_k(stream)
    serial_out = run_pipeline(
        stream, sharded_operator(3, ShardExecutor(), aggregate=aggregate, k=k)
    )
    process_out = run_pipeline(
        stream, sharded_operator(3, pool, aggregate=aggregate, k=k)
    )
    assert canonical(process_out.results) == canonical(serial_out.results)


def test_warm_pool_is_reused_across_runs(pool):
    stream = keyed_stream(duration=5.0)
    k = no_late_k(stream)
    first = run_pipeline(stream, sharded_operator(2, pool, k=k))
    pids = [worker.pid for worker in pool._workers]
    second = run_pipeline(stream, sharded_operator(2, pool, k=k))
    assert [worker.pid for worker in pool._workers] == pids
    assert canonical(first.results) == canonical(second.results)


def test_empty_stream_finishes_empty(pool):
    operator = sharded_operator(2, pool)
    assert operator.finish() == []


def test_process_shards_run_sanitizer_clean(pool):
    stream = keyed_stream(duration=8.0)
    operator = sharded_operator(2, pool, k=no_late_k(stream), mode="tree")
    output = run_pipeline(stream, operator, sanitize="stream")
    assert output.results


# --------------------------------------------------------------------- #
# observability: dispatch/collect traces, absorbed events, metric merge


def test_trace_records_chunked_dispatch_and_collect(pool):
    stream = keyed_stream()
    recorder = TraceRecorder()
    operator = sharded_operator(4, pool, k=no_late_k(stream))
    run_pipeline(stream, operator, trace=recorder)

    dispatches = list(recorder.of_kind("shard.dispatch"))
    collects = list(recorder.of_kind("shard.collect"))
    # chunk_size=64 over ~450 elements on 4 shards: several chunks/shard,
    # proving dispatch is incremental rather than one blob at finish.
    assert len(dispatches) > 4
    assert {e.fields["shard"] for e in collects} == {
        e.fields["shard"] for e in dispatches
    }
    for event in dispatches:
        assert event.fields["count"] > 0
        assert event.fields["bytes"] > 0
    for event in collects:
        assert event.fields["chunks"] >= 1
        assert event.fields["events"] > 0


def test_worker_trace_events_are_absorbed_and_retimestamped(pool):
    stream = keyed_stream(duration=8.0)
    in_process = ShardExecutor()
    in_process.chunk_size = pool.chunk_size
    traces = []
    for executor in (pool, in_process):
        recorder = TraceRecorder()
        operator = sharded_operator(2, executor, k=no_late_k(stream), mode="tree")
        run_pipeline(stream, operator, trace=recorder)
        # Shard-side kinds (per-element engine events) made it across.
        assert any(recorder.of_kind("window.close"))
        assert any(recorder.of_kind("buffer.release"))
        # Re-timestamping keeps every absorbed event within this recorder's
        # clock: non-negative and no later than the run.end record.
        run_end = max(e.wall_time for e in recorder.events)
        for event in recorder.events:
            assert 0.0 <= event.wall_time <= run_end
        traces.append(
            sorted(
                repr(
                    (
                        event.kind,
                        event.sim_time,
                        sorted(
                            (name, value)
                            for name, value in event.fields.items()
                            if name not in ("bytes", "wall_time_s")
                        ),
                    )
                )
                for event in recorder.events
            )
        )
    # Both executors drive the same shard session, so a traced run records
    # the same events either way; only bytes on the wire and wall time differ.
    assert traces[0] == traces[1]


def test_registry_merges_worker_metric_deltas(pool):
    stream = keyed_stream()
    registry = MetricsRegistry()
    operator = sharded_operator(4, pool, k=no_late_k(stream))
    run_pipeline(stream, operator, registry=registry)
    shard_ids = {
        shard for shard in range(4)
        if registry.counter(f"shard.{shard}.elements_in").value
    }
    assert shard_ids
    total_chunks = sum(
        registry.counter(f"shard.{shard}.chunks").value for shard in shard_ids
    )
    total_wire = sum(
        registry.counter(f"shard.{shard}.wire_bytes").value for shard in shard_ids
    )
    assert total_chunks >= len(shard_ids)
    assert total_wire > 0


# --------------------------------------------------------------------- #
# fault injection


class BoomAggregate(CountAggregate):
    """Counts until 30 adds, then raises mid-chunk inside the worker."""

    def __init__(self) -> None:
        self.adds = 0

    def add(self, accumulator, value):
        self.adds += 1
        if self.adds > 30:
            raise RuntimeError("boom in worker")
        super().add(accumulator, value)

    def add_many(self, accumulator, values):
        for value in values:
            self.add(accumulator, value)


class ExitAggregate(CountAggregate):
    """Poison pill: kills the worker process outright after 30 adds."""

    def __init__(self) -> None:
        self.adds = 0

    def add(self, accumulator, value):
        self.adds += 1
        if self.adds > 30:
            os._exit(3)
        super().add(accumulator, value)

    def add_many(self, accumulator, values):
        for value in values:
            self.add(accumulator, value)


def fresh_handler():
    """Module-level handler factory (picklable prototype product)."""
    return KSlackHandler(1.0)


def run_fault(aggregate):
    stream = keyed_stream(duration=8.0)
    executor = ProcessShardExecutor(max_workers=2, chunk_size=16)
    try:
        operator = ShardedWindowOperator(
            2,
            ASSIGNER,
            aggregate,
            fresh_handler,
            executor=executor,
        )
        run_pipeline(stream, operator)
    finally:
        executor.close()


def test_worker_exception_mid_chunk_raises_with_diagnostics():
    with pytest.raises(ShardWorkerError) as excinfo:
        run_fault(BoomAggregate())
    message = str(excinfo.value)
    assert "boom in worker" in message
    assert "worker traceback" in message
    assert "shard" in message


def test_killed_worker_is_detected_with_exit_code_and_shards():
    with pytest.raises(ShardWorkerError) as excinfo:
        run_fault(ExitAggregate())
    message = str(excinfo.value)
    assert "died" in message
    assert "exit code" in message
    assert "owned shards" in message


def test_pool_recovers_after_a_worker_failure(pool):
    stream = keyed_stream(duration=5.0)
    k = no_late_k(stream)
    executor = ProcessShardExecutor(max_workers=2, chunk_size=16)
    try:
        with pytest.raises(ShardWorkerError):
            operator = ShardedWindowOperator(
                2, ASSIGNER, BoomAggregate(), fresh_handler, executor=executor
            )
            run_pipeline(stream, operator)
        # The next begin() rebuilds the pool transparently.
        output = run_pipeline(stream, sharded_operator(2, executor, k=k))
        assert output.results
    finally:
        executor.close()


def test_unpicklable_handler_is_rejected_at_build_time():
    handler = KSlackHandler(1.0)
    handler.on_release = lambda element: element  # closures cannot pickle
    executor = ProcessShardExecutor(max_workers=1)
    try:
        with pytest.raises(ConfigurationError) as excinfo:
            ShardedWindowOperator(
                2,
                ASSIGNER,
                make_aggregate("count"),
                lambda: handler,
                executor=executor,
            )
        message = str(excinfo.value)
        assert "disorder handler" in message
        assert "module-level" in message
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# executor construction and the seam contract


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_invalid_max_workers_rejected(bad):
    with pytest.raises(ConfigurationError):
        ProcessShardExecutor(max_workers=bad)


@pytest.mark.parametrize("bad", [0, -3, 2.0, False])
def test_invalid_chunk_size_rejected(bad):
    with pytest.raises(ConfigurationError):
        ProcessShardExecutor(chunk_size=bad)


def test_worker_count_caps_at_shards_and_cpus():
    executor = ProcessShardExecutor(max_workers=2)
    assert executor.worker_count(1) == 1
    assert executor.worker_count(8) == 2
    unlimited = ProcessShardExecutor()
    assert unlimited.worker_count(64) == min(64, os.cpu_count() or 1)


def test_batch_run_entry_point_is_rejected():
    # begin/dispatch/collect is the whole seam: no executor has a batch
    # run(fn, tasks) entry point to call.
    assert not hasattr(ShardExecutor, "run")
    assert not hasattr(ProcessShardExecutor, "run")


def test_describe_names_the_strategy():
    assert ProcessShardExecutor(max_workers=4).describe() == "processes(4)"
    assert ProcessShardExecutor().describe() == "processes(auto)"
    assert ProcessShardExecutor(max_workers=4).chunk_size == DEFAULT_CHUNK_SIZE


# --------------------------------------------------------------------- #
# query-builder and CLI plumbing


def test_query_builder_process_executor_matches_serial(pool):
    from repro.queries.language import ContinuousQuery

    stream = keyed_stream(duration=8.0)

    def build(kind, executor=None):
        query = (
            ContinuousQuery()
            .from_elements(stream)
            .window(ASSIGNER)
            .aggregate("count")
            .with_slack(1.0)
            .shards(2)
        )
        return query.executor(executor if executor is not None else kind).run()

    serial_run = build("serial")
    process_run = build("process", executor=pool)
    assert canonical(process_run.results) == canonical(serial_run.results)


def test_query_builder_rejects_executor_without_shards():
    from repro.queries.language import ContinuousQuery

    query = (
        ContinuousQuery()
        .from_elements(keyed_stream(duration=2.0))
        .window(ASSIGNER)
        .aggregate("count")
        .with_slack(1.0)
        .executor("process")
    )
    with pytest.raises(QueryError):
        query.build_operator()


def test_query_builder_rejects_chunk_size_for_serial():
    # Only the process executor has a settable chunk size.
    from repro.queries.language import ContinuousQuery

    with pytest.raises(QueryError, match="chunk_size only applies"):
        ContinuousQuery().executor("serial", chunk_size=128)


def test_query_builder_rejects_unknown_executor(capsys):
    from repro.cli import build_parser
    from repro.queries.language import ContinuousQuery

    for kind in ("fiber", "thread"):
        with pytest.raises(QueryError, match='"serial".*"process"'):
            ContinuousQuery().executor(kind)
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", "trace.jsonl", "--window", "4", "--slide", "1",
             "--shards", "2", "--executor", "thread"]
        )
    message = capsys.readouterr().err
    assert "'serial'" in message and "'process'" in message
