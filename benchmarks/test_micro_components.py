"""Micro-benchmarks of the engine's hot paths.

Unlike the experiment benchmarks (which time whole evaluation runs and
check result shapes), these time individual components with
pytest-benchmark's statistics so regressions in the per-element hot path
are visible.
"""

import numpy as np
import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.sampling import P2DelayBank, SlidingDelaySample
from repro.core.spec import QualityTarget
from repro.engine.aggregates import MeanAggregate, make_aggregate
from repro.engine.buffer import SortingBuffer
from repro.engine.handlers import KSlackHandler
from repro.engine.sketches import HyperLogLog, P2Quantile
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream

N = 5000


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(3)
    return inject_disorder(
        generate_stream(duration=N / 100, rate=100, rng=rng),
        ExponentialDelay(0.3),
        rng,
    )


def test_sorting_buffer_push_release(benchmark, stream):
    def run():
        buffer = SortingBuffer()
        released = 0
        for i, element in enumerate(stream):
            buffer.push(element)
            if i % 10 == 0:
                released += len(buffer.release_until(element.event_time - 0.5))
        return released

    assert benchmark(run) > 0


def test_kslack_offer(benchmark, stream):
    def run():
        handler = KSlackHandler(0.5)
        released = 0
        for element in stream:
            released += len(handler.offer(element))
        return released

    assert benchmark(run) > 0


def test_aqk_offer(benchmark, stream):
    def run():
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=make_aggregate("count")
        )
        released = 0
        for element in stream:
            released += len(handler.offer(element))
        return released

    assert benchmark(run) > 0


def test_window_assignment(benchmark):
    assigner = SlidingWindowAssigner(size=10, slide=2)

    def run():
        total = 0
        for i in range(N):
            total += len(assigner.assign(i * 0.01))
        return total

    assert benchmark(run) > 0


def test_mean_aggregate_fold(benchmark):
    aggregate = MeanAggregate()
    values = list(np.random.default_rng(0).random(N))

    def run():
        accumulator = aggregate.create()
        for value in values:
            aggregate.add(accumulator, value)
        return aggregate.result(accumulator)

    assert benchmark(run) >= 0


def test_p2_quantile_observe(benchmark):
    values = list(np.random.default_rng(0).exponential(1.0, N))

    def run():
        sketch = P2Quantile(0.95)
        for value in values:
            sketch.observe(value)
        return sketch.value()

    assert benchmark(run) > 0


def test_sliding_delay_sample_quantile(benchmark):
    values = list(np.random.default_rng(0).exponential(1.0, N))

    def run():
        sample = SlidingDelaySample(capacity=2000)
        total = 0.0
        for i, value in enumerate(values):
            sample.observe(value)
            if i % 100 == 0:
                total += sample.quantile(0.95)
        return total

    assert benchmark(run) > 0


def test_p2_delay_bank_quantile(benchmark):
    values = list(np.random.default_rng(0).exponential(1.0, N))

    def run():
        bank = P2DelayBank()
        total = 0.0
        for i, value in enumerate(values):
            bank.observe(value)
            if i % 100 == 0:
                total += bank.quantile(0.95)
        return total

    assert benchmark(run) > 0


def test_hyperloglog_add(benchmark):
    def run():
        sketch = HyperLogLog(precision=12)
        for i in range(N):
            sketch.add(i % 1000)
        return sketch.estimate()

    assert benchmark(run) > 0


def test_naive_window_operator_throughput(benchmark, stream):
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner

    def run():
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 1),
            MeanAggregate(),
            KSlackHandler(0.5),
            track_feedback=False,
        )
        return len(run_pipeline(stream, operator).results)

    assert benchmark(run) > 0


def test_tree_window_operator_throughput(benchmark, stream):
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner

    def run():
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 1),
            MeanAggregate(),
            KSlackHandler(0.5),
            track_feedback=False,
            mode="tree",
        )
        return len(run_pipeline(stream, operator).results)

    assert benchmark(run) > 0


def test_retirement_large_horizon(benchmark, stream):
    """Retirement cost at a huge feedback horizon (nothing ever retires).

    The old implementation scanned every closed-window record per element,
    so cost grew with the horizon; the heap-based early exit makes this
    O(1) per element regardless of how much history is retained.
    """
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner

    def run():
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 1),
            MeanAggregate(),
            KSlackHandler(0.5),
            feedback_horizon=1e9,
        )
        return len(run_pipeline(stream, operator).results)

    assert benchmark(run) > 0


def test_sorting_buffer_bulk_release(benchmark, stream):
    """Bulk push + sort-and-split release vs the per-element heap path."""

    def run():
        buffer = SortingBuffer()
        released = 0
        for start in range(0, len(stream), 256):
            chunk = stream[start : start + 256]
            buffer.push_many(chunk)
            released += len(buffer.release_until(chunk[-1].event_time - 0.5))
        released += len(buffer.drain())
        return released

    assert benchmark(run) > 0


@pytest.mark.parametrize(
    "lag,size", [(0.5, 256), (20.0, 32)], ids=["chunk-large-vs-heap", "chunk-small-vs-heap"]
)
def test_sorting_buffer_push_release_chunk(benchmark, stream, lag, size):
    """``push_release`` on each side of its size rule: one sort of chunk +
    heap (~50 held, chunk 256), ``push_many`` + ``release_until`` (~2,000
    held, chunk 32: sorting the heap per chunk would dominate)."""

    def run():
        buffer = SortingBuffer()
        released = 0
        for start in range(0, len(stream), size):
            chunk = stream[start : start + size]
            released += len(buffer.push_release(chunk, chunk[-1].event_time - lag))
        return released + len(buffer.drain())

    assert benchmark(run) == len(stream)


def test_sorting_buffer_push_many_in_order(benchmark):
    """In-order bulk pushes take the append-only fast path (no re-heapify).

    The batch is event-time sorted and extends the tail, so ``push_many``
    must extend the backing list directly; the assertion below verifies the
    fast path stayed a valid heap by draining in order.
    """
    ordered = [
        StreamElement(event_time=i * 0.01, value=float(i), seq=i) for i in range(N)
    ]
    chunks = [ordered[start : start + 256] for start in range(0, N, 256)]

    def run():
        buffer = SortingBuffer()
        for chunk in chunks:
            buffer.push_many(chunk)
        return len(buffer.release_until(ordered[-1].event_time))

    assert benchmark(run) == N

    # Correctness of the fast path: tail-extending pushes keep heap order.
    buffer = SortingBuffer()
    for chunk in chunks:
        buffer.push_many(chunk)
    drained = buffer.drain()
    assert [el.seq for el in drained] == [el.seq for el in ordered]


def test_kslack_offer_many(benchmark, stream):
    """Bulk K-slack offer: amortized clock/frontier math via numpy."""

    def run():
        handler = KSlackHandler(0.5)
        released = 0
        for start in range(0, len(stream), 256):
            out, __ = handler.offer_many(stream[start : start + 256])
            released += len(out)
        return released

    assert benchmark(run) > 0


def test_batched_window_operator_throughput(benchmark, stream):
    """Batched naive operator: the E18 fast path in isolation."""
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner

    def run():
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 1),
            MeanAggregate(),
            KSlackHandler(0.5),
            track_feedback=False,
        )
        return len(run_pipeline(stream, operator, batch_size=512).results)

    assert benchmark(run) > 0


def test_sanitized_window_operator_throughput(benchmark, stream):
    """StreamSan overhead probe: the scalar pipeline with all checkers on.

    Compare against ``test_naive_window_operator_throughput`` (same
    operator, same stream, sanitize off) to read the checker overhead; the
    acceptance bar for the sanitizer is <10% on this workload (see
    ``docs/ANALYSIS.md``).
    """
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline
    from repro.engine.windows import SlidingWindowAssigner

    def run():
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 1),
            MeanAggregate(),
            KSlackHandler(0.5),
            track_feedback=False,
        )
        return len(run_pipeline(stream, operator, sanitize=True).results)

    assert benchmark(run) > 0
