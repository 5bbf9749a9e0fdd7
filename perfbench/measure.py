"""The measurement passes of one workload.

Every pass drives the system through ``build_operator()`` + ``run_pipeline``
(:func:`run_once`); the standalone layer timings call the public building
blocks directly (``SortingBuffer``, ``encode_chunk``/``decode_chunk``,
``stable_shard``, ``ShardRunner``, ``dumps_state``).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro import KSlackHandler, make_aggregate, run_pipeline, sliding
from repro.engine.buffer import SortingBuffer
from repro.engine.checkpoint import dumps_state, loads_state
from repro.engine.parallel import ShardRunner, stable_shard
from repro.engine.process_pool import (
    CODEC_STATS,
    ProcessShardExecutor,
    decode_chunk,
    encode_chunk,
)

from perfbench import OUT_DIR, run_interpreter, stop_children
from perfbench.proxies import (
    PIPELINE_RUN,
    ClockedStream,
    CountingAggregate,
    ExecutorProxy,
    HandlerProxy,
    OperatorProxy,
    PacedStream,
    RecordingHandler,
    SpanLog,
    SpanSummary,
)
from perfbench.workloads import (
    AGGREGATE,
    EXACT_SLACK_S,
    Inputs,
    Workload,
    build_query,
    make_handler,
)

_now = time.perf_counter

#: Timed repeats never go below this many, whatever ``--seconds`` says.
MIN_REPEATS = 12
#: The repeats run in this many blocks with the other passes between them:
#: the box's noise comes in phases of many seconds, and repeats (and set-up
#: probes) spread over the whole run sample more phases than back to back.
REPEAT_BLOCKS = 3
#: The timed repeats are clocked every this many input elements (or at the
#: first batch boundary past it): segments of a few milliseconds.
SEGMENT_ELEMENTS = 256
#: Offered rate of the open-loop paced pass, elements per second.
PACED_RATE = 8000.0
#: Untraced/traced pass pairs in a ``--trace 1`` run.
TRACE_PAIRS = 3
#: Spans written out per layer.
SPANS_PER_LAYER = 2000
#: Operations in each aggregate micro-loop.
MICRO_OPS = 200_000


class BenchError(Exception):
    """A pass broke an invariant the benchmark relies on; no result is valid."""


def require_identical(output, expected, pass_name: str) -> None:
    """Proxy transparency: every pass emits what the observed pass emitted."""
    if output.results != expected:
        raise BenchError(f"{pass_name} pass differs from the observed pass")


def run_once(workload: Workload, inputs: Inputs, operator, source=None):
    """The one call every pass goes through: feed the stream to completion."""
    return run_pipeline(
        inputs.elements if source is None else source,
        operator,
        batch_size=workload.batch_size,
    )


@dataclass
class Proxied:
    """An operator built with proxies at every seam the workload has."""

    operator: OperatorProxy
    handler: HandlerProxy | None
    aggregate: object
    executor: ExecutorProxy | None


def close_pool(pool: ProcessShardExecutor, keep=()) -> None:
    """Tear ``pool`` down and wait, however long, until its workers are gone
    (``close`` itself gives a worker three seconds and then moves on);
    ``keep`` are the workers of another pool that is still in use."""
    try:
        pool.close()
    finally:
        stop_children(keep)


class Bench:
    """One workload's inputs plus, when sharded, its warm process pool."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.pool = (
            ProcessShardExecutor(max_workers=workload.shards) if workload.shards else None
        )

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            close_pool(self.pool)

    # -- operators ----------------------------------------------------- #

    def build(self):
        """A fresh operator exactly as a user of the query builder gets it."""
        return build_query(self.workload, executor=self.pool).build_operator()

    def build_proxied(self, log: SpanLog, record: bool = False) -> Proxied:
        """A fresh operator with proxies installed; ``record`` adds the
        exact counters (aggregate folds, buffer thresholds, dispatched chunks)."""
        workload = self.workload
        aggregate = make_aggregate(AGGREGATE)
        if record:
            aggregate = CountingAggregate(aggregate)
        handler = executor = None
        if workload.shards:
            executor = ExecutorProxy(self.pool, log, keep_chunks=record)
            query = build_query(workload, aggregate=aggregate, executor=executor)
        else:
            handler_class = RecordingHandler if record else HandlerProxy
            handler = handler_class(make_handler(workload, aggregate), log)
            query = build_query(workload, handler=handler, aggregate=aggregate)
        return Proxied(OperatorProxy(query.build_operator(), log), handler, aggregate, executor)

    # -- passes -------------------------------------------------------- #

    def proxied_pass(self, record: bool = False, source=None):
        """One run under proxies, inside a root ``pipeline.run`` span."""
        log = SpanLog()
        proxied = self.build_proxied(log, record)
        gc.collect()
        start = _now()
        output = run_once(self.workload, self.inputs, proxied.operator, source)
        log.add(PIPELINE_RUN, start, _now())
        return log, proxied, output

    def untraced_pass(self, expected) -> tuple[list[float], float]:
        """One closed-loop run, tracing off, on a fresh operator.

        Returns the wall times at the run's start, at every
        :data:`SEGMENT_ELEMENTS`-th element and at its end, plus the build
        seconds; the results must be bit-identical to ``expected``.
        """
        start = _now()
        operator = self.build()
        build_s = _now() - start
        source = ClockedStream(self.inputs.elements, SEGMENT_ELEMENTS)
        gc.collect()
        start = _now()
        output = run_once(self.workload, self.inputs, operator, source)
        marks = [start, *source.marks, _now()]
        require_identical(output, expected, "untraced")
        return marks, build_s

    def timed_block(self, seconds: float, expected) -> list[list[float]]:
        """One block of closed-loop repeats (their marks), for a
        :data:`REPEAT_BLOCKS`-th of ``seconds`` and of :data:`MIN_REPEATS`."""
        repeats: list[list[float]] = []
        began = _now()
        while (
            len(repeats) < MIN_REPEATS // REPEAT_BLOCKS
            or _now() - began < seconds / REPEAT_BLOCKS
        ):
            repeats.append(self.untraced_pass(expected)[0])
        return repeats

    def memory_pass(self, expected) -> float:
        """Peak traced bytes above the level at run start (this process only)."""
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            output = run_once(self.workload, self.inputs, self.build())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        require_identical(output, expected, "memory")
        return float(peak - base)

    def paced_pass(self, expected) -> dict[str, float]:
        """Open loop at :data:`PACED_RATE` by compressed arrival time.

        Each result is timed from when its closing element was due.
        """
        arrivals = self.inputs.arrivals
        span = float(arrivals[-1] - arrivals[0])
        due = (arrivals - arrivals[0]) / span * (len(arrivals) / PACED_RATE)
        source = PacedStream(self.inputs.elements, due)
        _, proxied, output = self.proxied_pass(source=source)
        ended = _now()
        due += source.origin
        require_identical(output, expected, "paced")
        closing, handed_back_at, _, kept = handbacks_per_result(
            proxied.operator, output.results, arrivals
        )
        latency_ms = (handed_back_at - due[np.minimum(closing, len(due) - 1)])[kept] * 1e3
        return {
            "pipeline.wall_latency_p50_ms": float(np.quantile(latency_ms, 0.5)),
            "pipeline.wall_latency_p99_ms": float(np.quantile(latency_ms, 0.99)),
            "pipeline.paced_backlog_s": ended - float(due[-1]),
            "pipeline.paced_gen_lag_p99_ms": float(np.quantile(source.late, 0.99)) * 1e3,
        }


def handbacks_per_result(operator: OperatorProxy, results, arrivals: np.ndarray):
    """Per result: index of its closing element, wall time and fed count at
    hand-back, and whether the frontier (not the end-of-stream flush) closed it.

    A result's closing element is the one whose arrival is the result's
    simulated emit instant, i.e. the element that let the frontier pass
    the window end.
    """
    fed, counts, walls = zip(*operator.handbacks) if operator.handbacks else ((), (), ())
    fed_at = np.repeat(np.asarray(fed, dtype=np.int64), counts)
    wall_at = np.repeat(np.asarray(walls, dtype=float), counts)
    emit_times = np.fromiter((r.emit_time for r in results), dtype=float, count=len(results))
    closing = np.searchsorted(arrivals, emit_times, side="left")
    kept = np.array([not result.flushed for result in results])
    return closing, wall_at, fed_at, kept


def emit_lag_p99(operator: OperatorProxy, results, arrivals: np.ndarray) -> float:
    """p99 over frontier-closed results of the elements fed from a window's
    closing element (counted) until its result was handed back."""
    closing, _, fed_at, kept = handbacks_per_result(operator, results, arrivals)
    return float(np.quantile((fed_at - closing)[kept], 0.99))


def wall_of(marks: list[float]) -> float:
    return marks[-1] - marks[0]


def undisturbed_wall(repeats: list[list[float]]) -> float:
    """Run time with the box's interruptions taken out, from many repeats.

    Every repeat does the same work in the same order, so each segment
    (the stretch between two marks) costs the same each time unless the
    machine was busy elsewhere; the estimate is the sum, over segments, of
    the fastest any repeat got through that segment.  On this shared box
    it repeats about 1.5x tighter than the fastest whole repeats do.
    Falls back to the fastest whole repeat if repeats were cut differently.
    """
    if len({len(marks) for marks in repeats}) != 1:
        return min(wall_of(marks) for marks in repeats)
    return sum(
        min(marks[index + 1] - marks[index] for marks in repeats)
        for index in range(len(repeats[0]) - 1)
    )


# --------------------------------------------------------------------- #
# set-up probes


def setup_probe(workload: Workload) -> float:
    """One ``setup_s`` sample from a fresh interpreter."""
    done = run_interpreter(["-m", "perfbench.probe", workload.name], timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe exited {done.returncode}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# standalone layer timings


def replay_buffer(elements, sizes: list[int], thresholds: list[float]) -> dict[str, float]:
    """The recorded push/release-threshold sequence on a bare SortingBuffer."""
    buffer = SortingBuffer()
    position = released = 0
    start = _now()
    for size, threshold in zip(sizes, thresholds):
        if size == 1:
            buffer.push(elements[position])
        else:
            buffer.push_many(elements[position : position + size])
        position += size
        released += len(buffer.release_until(threshold))
    released += len(buffer.drain())
    return {
        "buffer.replay_s": _now() - start,
        "buffer.pushes": position,
        "buffer.releases": released,
        "buffer.max_size": buffer.max_size,
    }


def aggregate_costs(values: list[float]) -> tuple[float, float, float]:
    """ns per ``add``, per ``merge`` and per ``add_many`` value, micro-loops."""
    aggregate = make_aggregate(AGGREGATE)
    values = (values * (MICRO_OPS // len(values) + 1))[:MICRO_OPS]
    accumulator = aggregate.create()
    add = aggregate.add
    start = _now()
    for value in values:
        add(accumulator, value)
    add_ns = (_now() - start) / MICRO_OPS * 1e9
    other = aggregate.create()
    add(other, 0.5)
    merge = aggregate.merge
    start = _now()
    for _ in range(MICRO_OPS):
        merge(accumulator, other)
    merge_ns = (_now() - start) / MICRO_OPS * 1e9
    start = _now()
    aggregate.add_many(aggregate.create(), values)
    add_many_ns = (_now() - start) / MICRO_OPS * 1e9
    return add_ns, merge_ns, add_many_ns


def checkpoint_at_half(bench: Bench) -> dict[str, float]:
    """Snapshot and restore the operator's state at the 50% mark."""
    workload = bench.workload
    half = bench.inputs.elements[: len(bench.inputs.elements) // 2]
    operator = bench.build()
    if workload.batch_size > 1:
        for index in range(0, len(half), workload.batch_size):
            operator.process_many(half[index : index + workload.batch_size])
    else:
        for element in half:
            operator.process(element)
    start = _now()
    payload = dumps_state(operator)
    snapshot_s = _now() - start
    start = _now()
    loads_state(payload)
    restore_s = _now() - start
    node_count = getattr(operator, "node_count", None)
    return {
        "checkpoint.snapshot_s": snapshot_s,
        "checkpoint.bytes": len(payload),
        "checkpoint.restore_s": restore_s,
        "operator.node_count": node_count() if node_count is not None else 0,
    }


def replay_shards(bench: Bench, aggregate) -> tuple[list[float], list[int]]:
    """Each shard's ``ShardRunner`` in this process; returns seconds and sizes."""
    workload, inputs = bench.workload, bench.inputs
    routed: list[list] = [[] for _ in range(workload.shards)]
    for element in inputs.elements:
        routed[stable_shard(element.key, workload.shards)].append(element)
    chunk = bench.pool.chunk_size
    seconds = []
    for shard_id, elements in enumerate(routed):
        runner = ShardRunner(
            shard_id, workload.mode, sliding(*workload.window), aggregate,
            KSlackHandler(EXACT_SLACK_S),
        )
        start = _now()
        for index in range(0, len(elements), chunk):
            runner.feed(elements[index : index + chunk])
        runner.finish()
        seconds.append(_now() - start)
    return seconds, [len(elements) for elements in routed]


def codec_costs(chunks: list) -> dict[str, float]:
    """Encode and decode the dispatched chunks on their own."""
    CODEC_STATS.reset()
    start = _now()
    payloads = [encode_chunk(chunk) for chunk in chunks]
    encode_s = _now() - start
    pickles = CODEC_STATS.pickle_calls / max(1, len(chunks))
    start = _now()
    for payload in payloads:
        decode_chunk(payload)
    return {
        "process_pool.encode_s": encode_s,
        "process_pool.decode_s": _now() - start,
        "process_pool.pickles_per_chunk": pickles,
    }


def pool_spawn_cost(bench: Bench) -> float:
    """What a cold pool costs over a warm one: the same short run on a
    fresh executor, twice; the difference is spawn plus worker imports."""
    workload, inputs = bench.workload, bench.inputs
    prefix = inputs.prefix(4096)
    warm = multiprocessing.active_children()
    pool = ProcessShardExecutor(max_workers=workload.shards)
    try:
        walls = []
        for _ in range(2):
            operator = build_query(workload, executor=pool).build_operator()
            start = _now()
            run_once(workload, prefix, operator)
            walls.append(_now() - start)
    finally:
        close_pool(pool, keep=warm)
    return walls[0] - walls[1]


# --------------------------------------------------------------------- #
# the traced pass, summarised per layer


def layer_metrics(
    summary: SpanSummary, proxied: Proxied, output, untraced_wall: float
) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced pass and any broken accounting."""
    wall = summary.total["pipeline.run"]
    pipeline_self = summary.self_time["pipeline.run"]
    operator_busy = summary.layer(summary.total, "operator")
    operator_self = summary.layer(summary.self_time, "operator")
    finish_s = summary.total["operator.finish"]
    calls = [d for name in ("operator.process", "operator.process_many")
             for d in summary.durations.get(name, [])]
    metrics = {
        "pipeline.self_s": pipeline_self,
        "pipeline.self_share": pipeline_self / wall,
        "pipeline.calls": sum(
            count for name, count in summary.calls.items() if name.startswith("operator.")
        ),
        "pipeline.proxy_overhead_ratio": wall / untraced_wall,
        "operator.busy_s": operator_busy,
        "operator.self_s": operator_self,
        "operator.self_share": operator_self / wall,
        "operator.finish_s": finish_s,
        "operator.call_p50_us": float(np.quantile(calls, 0.5)) * 1e6,
        "operator.call_p99_us": float(np.quantile(calls, 0.99)) * 1e6,
        "operator.results_out": len(output.results),
        "operator.late_dropped": output.metrics.late_dropped,
        "handler.released": output.metrics.released_count,
        "handler.max_buffered": output.metrics.max_buffered,
        "handler.final_slack_s": proxied.operator.handler.current_slack,
    }
    if proxied.handler is not None:
        handler_busy = summary.layer(summary.total, "handler")
        metrics.update({
            "handler.busy_s": handler_busy,
            "handler.share": handler_busy / wall,
            "handler.offered": proxied.handler.offered,
            "handler.adaptations": len(getattr(proxied.handler.inner, "adaptations", ())),
            "handler.feedback_calls": proxied.handler.feedback_calls,
        })
        parts = pipeline_self + operator_self + handler_busy
    else:
        feed_s = operator_busy - finish_s
        merge_s = summary.self_time["operator.finish"]
        metrics.update({
            "handler.offered": output.metrics.n_elements,
            "parallel.feed_s": feed_s,
            "parallel.route_s": operator_self - merge_s,
            "parallel.finish_s": finish_s,
            "parallel.merge_s": merge_s,
            "parallel.deferred_frac": proxied.operator.from_finish / len(output.results),
            "process_pool.dispatch_s": summary.total["process_pool.dispatch"],
            "process_pool.collect_wait_s": summary.total["process_pool.collect"],
            "process_pool.chunks": proxied.executor.chunks,
            "process_pool.wire_bytes": proxied.executor.wire_bytes,
        })
        parts = pipeline_self + feed_s + finish_s
    problems = []
    if abs(parts - wall) > 0.02 * wall:
        problems.append(
            f"layer self-times sum to {parts:.4f}s, traced wall is {wall:.4f}s (>2% apart)"
        )
    return metrics, problems


def write_spans(log: SpanLog, parents: list[int], name: str) -> None:
    """The first :data:`SPANS_PER_LAYER` spans of each layer, as JSON lines."""
    OUT_DIR.mkdir(exist_ok=True)
    origin = log.starts[-1]  # the root span ends, and is recorded, last
    written: dict[str, int] = {}
    rows = zip(log.names(), log.starts, log.ends, parents)
    with open(OUT_DIR / f"{name}.spans.jsonl", "w") as out:
        for index, (span, start, end, parent) in enumerate(rows):
            layer = span.split(".", 1)[0]
            if written.get(layer, 0) >= SPANS_PER_LAYER:
                continue
            written[layer] = written.get(layer, 0) + 1
            out.write(json.dumps({
                "id": index, "name": span, "start": start - origin,
                "end": end - origin, "parent": parent,
            }) + "\n")


def disorder_stats(elements) -> tuple[float, float]:
    """Share of elements behind the running maximum event time, and p99 delay."""
    event_times = np.fromiter((e.event_time for e in elements), dtype=float, count=len(elements))
    delays = np.fromiter((e.delay for e in elements), dtype=float, count=len(elements))
    behind = event_times < np.maximum.accumulate(event_times)
    return float(behind.mean()), float(np.quantile(delays, 0.99))
