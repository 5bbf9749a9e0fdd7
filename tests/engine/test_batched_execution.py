"""Deterministic scalar vs batched execution equivalence.

One seeded disordered stream, every disorder handler (including the
adaptive handler in all three target modes), both window operators, and
batch sizes that do not divide the stream length.  Emit times, latencies,
counts, keys, windows, late drops, released counts, observed-error
sequences and slack timelines must match the scalar run exactly; window
values and error magnitudes are compared with a tiny relative tolerance
because bulk folds may re-associate floating-point sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import BoundedQualityTarget, LatencyBudget, QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
    SumAggregate,
)
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.watermarks import (
    FixedLagWatermarkHandler,
    HeuristicWatermarkHandler,
    PerfectWatermarkHandler,
)
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream

RTOL = 1e-9


@pytest.fixture(scope="module")
def stream() -> list[StreamElement]:
    values = np.random.default_rng(42)
    base = [
        StreamElement(
            event_time=i * 0.05,
            key=f"k{i % 3}",
            value=float(values.uniform(0.0, 100.0)),
        )
        for i in range(800)
    ]
    return inject_disorder(base, ExponentialDelay(0.6), np.random.default_rng(7))


HANDLERS = {
    "no-buffer": lambda stream: NoBufferHandler(),
    "k-slack": lambda stream: KSlackHandler(1.0),
    "mp-k-slack": lambda stream: MPKSlackHandler(),
    "fixed-watermark": lambda stream: FixedLagWatermarkHandler(1.0),
    "heuristic-watermark": lambda stream: HeuristicWatermarkHandler(),
    "perfect-watermark": lambda stream: PerfectWatermarkHandler(stream),
    "aqk-quality": lambda stream: AQKSlackHandler(
        QualityTarget(0.05), "mean", window_size=4.0
    ),
    "aqk-bounded": lambda stream: AQKSlackHandler(
        BoundedQualityTarget(0.05, 2.0), "mean", window_size=4.0
    ),
    "aqk-budget": lambda stream: AQKSlackHandler(
        LatencyBudget(1.5), "mean", window_size=4.0
    ),
}

OPERATORS = {
    "naive": WindowAggregateOperator,
    # The slice store; the label (and the case ids) predate ``mode="tree"``
    # being its only name.
    "sliced": functools.partial(WindowAggregateOperator, mode="tree"),
}

AGGREGATES = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "mean": MeanAggregate,
    "max": MaxAggregate,
    "median": MedianAggregate,
}

# Every handler appears with both operators, every aggregate appears at
# least twice, and batch sizes never divide the 800-element stream.
CASES = [
    ("no-buffer", "naive", "mean", 7),
    ("no-buffer", "sliced", "median", 256),
    ("k-slack", "naive", "count", 97),
    ("k-slack", "sliced", "mean", 10**6),
    ("mp-k-slack", "naive", "sum", 13),
    ("mp-k-slack", "sliced", "max", 256),
    ("fixed-watermark", "naive", "max", 97),
    ("fixed-watermark", "sliced", "count", 7),
    ("heuristic-watermark", "naive", "median", 63),
    ("heuristic-watermark", "sliced", "sum", 97),
    ("perfect-watermark", "naive", "mean", 256),
    ("perfect-watermark", "sliced", "count", 511),
    ("aqk-quality", "naive", "mean", 97),
    ("aqk-quality", "sliced", "median", 63),
    ("aqk-bounded", "naive", "count", 97),
    ("aqk-bounded", "sliced", "mean", 31),
    ("aqk-budget", "naive", "mean", 256),
    ("aqk-budget", "sliced", "median", 31),
]


def close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b or abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def assert_equivalent(scalar, batched) -> None:
    assert len(scalar.results) == len(batched.results)
    for expected, actual in zip(scalar.results, batched.results):
        assert expected.key == actual.key
        assert expected.window == actual.window
        assert expected.count == actual.count
        assert expected.emit_time == actual.emit_time
        assert expected.latency == actual.latency
        assert expected.flushed == actual.flushed
        assert close(expected.value, actual.value), (expected, actual)
    assert scalar.metrics.late_dropped == batched.metrics.late_dropped
    assert scalar.metrics.released_count == batched.metrics.released_count
    assert len(scalar.observed_errors) == len(batched.observed_errors)
    for expected, actual in zip(scalar.observed_errors, batched.observed_errors):
        assert close(expected, actual)
    assert len(scalar.metrics.slack_timeline) == len(batched.metrics.slack_timeline)
    for expected, actual in zip(
        scalar.metrics.slack_timeline, batched.metrics.slack_timeline
    ):
        assert expected.arrival_time == actual.arrival_time
        assert expected.frontier == actual.frontier
        assert close(expected.slack, actual.slack)
        assert expected.buffered == actual.buffered


@pytest.mark.parametrize("handler_name,op_name,agg_name,batch_size", CASES)
def test_batched_equals_scalar(stream, handler_name, op_name, agg_name, batch_size):
    def make_operator():
        return OPERATORS[op_name](
            SlidingWindowAssigner(4.0, 1.0),
            AGGREGATES[agg_name](),
            HANDLERS[handler_name](stream),
            feedback_horizon=8.0,
        )

    scalar = run_pipeline(list(stream), make_operator(), sample_every=50)
    batched = run_pipeline(
        list(stream), make_operator(), sample_every=50, batch_size=batch_size
    )
    assert_equivalent(scalar, batched)
    assert scalar.metrics.released_count > 0


@pytest.mark.parametrize("handler_name", sorted(HANDLERS))
def test_offer_many_matches_offer(stream, handler_name):
    """Handler-level contract: chunked offer_many replays offer exactly."""
    scalar = HANDLERS[handler_name](stream)
    bulk = HANDLERS[handler_name](stream)
    chunk_size = 93
    for start in range(0, len(stream), chunk_size):
        chunk = stream[start : start + chunk_size]
        released, checkpoints = bulk.offer_many(chunk)
        assert len(checkpoints) == len(chunk)
        assert checkpoints[-1][0] == len(released)
        prev_offset = 0
        for element, (end_offset, frontier) in zip(chunk, checkpoints):
            expected = scalar.offer(element)
            assert [
                (e.event_time, e.seq) for e in released[prev_offset:end_offset]
            ] == [(e.event_time, e.seq) for e in expected]
            assert frontier == scalar.frontier
            prev_offset = end_offset
        assert bulk.frontier == scalar.frontier
        assert bulk.released_count() == scalar.released_count()


@pytest.mark.parametrize("slack", [0.0, 1.0])
def test_a_chunk_of_identical_timestamps_matches_scalar(slack):
    """Coarse timestamps: a whole chunk shares one event time, the next mixes
    ties with late and newer elements.  With ``K = 0`` every tied element is
    released by its own offer, so each is located among its ties by seq."""
    chunk_size = 256
    times = [i * 0.02 for i in range(chunk_size)]
    times += [6.0] * chunk_size
    times += [(6.0, 3.0, 6.5, 7.0)[i % 4] for i in range(chunk_size)]
    values = np.random.default_rng(5)
    tied = [
        StreamElement(
            event_time=t, key=f"k{i % 3}", value=float(values.uniform(0.0, 100.0)),
            arrival_time=10.0 + i * 0.02, seq=i,
        )
        for i, t in enumerate(times)
    ]
    scalar = KSlackHandler(slack)
    bulk = KSlackHandler(slack)
    for start in range(0, len(tied), chunk_size):
        chunk = tied[start : start + chunk_size]
        released, checkpoints = bulk.offer_many(chunk)
        prev_offset = 0
        for element, (end_offset, frontier) in zip(chunk, checkpoints):
            assert [e.seq for e in released[prev_offset:end_offset]] == [
                e.seq for e in scalar.offer(element)
            ]
            assert frontier == scalar.frontier
            prev_offset = end_offset
        assert prev_offset == len(released)

    def make_operator():
        return WindowAggregateOperator(
            SlidingWindowAssigner(4.0, 1.0), MeanAggregate(), KSlackHandler(slack),
            feedback_horizon=8.0,
        )

    assert_equivalent(
        run_pipeline(list(tied), make_operator(), sample_every=50),
        run_pipeline(list(tied), make_operator(), sample_every=50, batch_size=chunk_size),
    )


def test_negative_batch_size_rejected(stream):
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(4.0, 1.0), CountAggregate(), KSlackHandler(1.0)
    )
    with pytest.raises(ConfigurationError):
        run_pipeline(stream, operator, batch_size=-1)


def test_process_many_empty_chunk(stream):
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(4.0, 1.0), CountAggregate(), KSlackHandler(1.0)
    )
    assert operator.process_many([]) == []


# --------------------------------------------------------------------- #
# error-fed adaptation rounds: long enough for feedback to steer K


def aqk_quality_operator(**handler_options) -> WindowAggregateOperator:
    return WindowAggregateOperator(
        SlidingWindowAssigner(4.0, 1.0),
        MeanAggregate(),
        AQKSlackHandler(
            QualityTarget(0.02), "mean", window_size=4.0, **handler_options
        ),
    )


def run_in_slices(elements, operator, size):
    """Hand ``process_many`` raw slices: no driver cuts them first."""
    results = []
    for start in range(0, len(elements), size):
        results.extend(operator.process_many(elements[start : start + size]))
    results.extend(operator.finish())
    return results


def assert_same_run(scalar_results, scalar_op, results, operator) -> None:
    assert [
        (r.key, r.window, r.value, r.emit_time) for r in results
    ] == [(r.key, r.window, r.value, r.emit_time) for r in scalar_results]
    assert operator.stats.observed_errors == scalar_op.stats.observed_errors
    assert operator.handler.adaptations == scalar_op.handler.adaptations


def test_aqk_feedback_rounds_match_scalar_however_the_batch_is_cut():
    """A boundary element must release under the K its own round set, and
    that round must have seen every earlier element's retirement feedback:
    12k elements, where the 30-800 element streams above agree either way.
    """
    rng = np.random.default_rng(3)
    elements = inject_disorder(
        generate_stream(duration=120, rate=100, rng=rng), ExponentialDelay(0.5), rng
    )
    scalar_op = aqk_quality_operator()
    scalar = run_pipeline(elements, scalar_op)
    assert len(scalar_op.handler.adaptations) > 100

    batched_op = aqk_quality_operator()
    batched = run_pipeline(elements, batched_op, batch_size=512)
    assert_same_run(scalar.results, scalar_op, batched.results, batched_op)
    assert batched.observed_errors == scalar.observed_errors

    direct_op = aqk_quality_operator()
    direct = run_in_slices(elements, direct_op, 512)
    assert_same_run(scalar.results, scalar_op, direct, direct_op)


def test_chunk_in_which_every_element_fires_a_round():
    """``process_many`` cuts in a loop: 2,000 rounds in one call stay
    within the interpreter's recursion limit and equal the scalar run."""
    rng = np.random.default_rng(5)
    elements = inject_disorder(
        generate_stream(duration=200, rate=10, rng=rng), ExponentialDelay(0.5), rng
    )[:2000]
    gaps = np.diff([element.arrival_time for element in elements])
    options = {"adapt_interval": float(gaps[gaps > 0].min()) / 2, "warmup_elements": 0}
    scalar_op = aqk_quality_operator(**options)
    scalar = run_pipeline(elements, scalar_op)
    assert len(scalar_op.handler.adaptations) == len(elements)

    direct_op = aqk_quality_operator(**options)
    direct = run_in_slices(elements, direct_op, len(elements))
    assert_same_run(scalar.results, scalar_op, direct, direct_op)
