"""Property test: batched execution is indistinguishable from scalar.

Hypothesis generates random disordered streams (random gaps, delays,
values, keys), a disorder handler (including the adaptive handler in
quality-target and latency-budget modes), an aggregate, an operator and a
batch size — including sizes that do not divide the stream length — and
asserts the full :func:`run_pipeline` observable state matches the scalar
run: window results, late drops, released counts and observed errors.
One scenario in four is a :mod:`tests.fold_cases` stream under its own
window and K-slack, so the slice store's in-order fold is batched through
each of its paths, with and without feedback tracking; one in four is a
:mod:`tests.cell_cases` stream, which does the same for the cells that the
per-window store's ``add`` and ``stage`` share.  A fixed late-heavy burst
cell after the property pins the scalar buffer verb's no-heap path, which
the random draws rarely take, against the batched path.

Quality-mode adaptive cases use order-independent aggregates (count, max,
median): their folds are bit-exact, so the controller sees bit-identical
error feedback and the adaptation trajectory cannot diverge.  Sum/mean
now fold through the shared Neumaier primitive, so their batched path is
bit-identical to scalar too (pinned by ``tests/property/
test_numeric_properties.py`` and lint rule R20); only stddev's Chan
combine still re-associates, within its declared 1e-9 budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
    SumAggregate,
)
from repro.engine.buffer import SortingBuffer
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.watermarks import FixedLagWatermarkHandler, HeuristicWatermarkHandler
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import BurstyDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.cell_cases import cell_cases
from tests.fold_cases import fold_cases

RTOL = 1e-9

EXACT_AGGREGATES = {
    "count": CountAggregate,
    "max": MaxAggregate,
    "median": MedianAggregate,
}
ALL_AGGREGATES = {
    **EXACT_AGGREGATES,
    "sum": SumAggregate,
    "mean": MeanAggregate,
}

HANDLERS = {
    "no-buffer": lambda: NoBufferHandler(),
    "k-slack": lambda: KSlackHandler(0.8),
    "mp-k-slack": lambda: MPKSlackHandler(),
    "fixed-watermark": lambda: FixedLagWatermarkHandler(0.8),
    "heuristic-watermark": lambda: HeuristicWatermarkHandler(),
    "aqk-quality": lambda: AQKSlackHandler(
        QualityTarget(0.05), "mean", window_size=3.0, warmup_elements=20
    ),
    "aqk-budget": lambda: AQKSlackHandler(
        LatencyBudget(1.0), "mean", window_size=3.0, warmup_elements=20
    ),
}


@st.composite
def scenarios(draw):
    """``(elements, operator factory, batch size)``."""
    arm = draw(st.integers(min_value=0, max_value=3))
    if arm < 2:
        built = fold_cases if arm == 0 else cell_cases
        case = draw(built(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)))
        aggregate_cls = ALL_AGGREGATES[draw(st.sampled_from(sorted(ALL_AGGREGATES)))]
        mode = draw(st.sampled_from(["naive", "tree"]))
        track_feedback = draw(st.booleans())

        def make_fold_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(case.size, case.slide),
                aggregate_cls(),
                KSlackHandler(case.slack),
                track_feedback=track_feedback,
                mode=mode,
            )

        batch_size = draw(st.integers(min_value=2, max_value=len(case.stream) + 10))
        return case.stream, make_fold_operator, batch_size
    n = draw(st.integers(min_value=30, max_value=80))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    keys = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    )
    handler_name = draw(st.sampled_from(sorted(HANDLERS)))
    pool = EXACT_AGGREGATES if handler_name == "aqk-quality" else ALL_AGGREGATES
    aggregate_name = draw(st.sampled_from(sorted(pool)))
    operator_name = draw(st.sampled_from(["naive", "tree"]))
    batch_size = draw(st.integers(min_value=2, max_value=n + 10))

    event_time = 0.0
    elements = []
    for seq in range(n):
        event_time += gaps[seq]
        elements.append(
            StreamElement(
                event_time=event_time,
                value=values[seq],
                key=f"k{keys[seq]}",
                arrival_time=event_time + delays[seq],
                seq=seq,
            )
        )
    elements.sort(key=StreamElement.arrival_sort_key)

    def make_operator():
        return WindowAggregateOperator(
            SlidingWindowAssigner(3.0, 1.0),
            ALL_AGGREGATES[aggregate_name](),
            HANDLERS[handler_name](),
            feedback_horizon=6.0,
            mode=operator_name,
        )

    return elements, make_operator, batch_size


def close(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b or abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_batched_run_matches_scalar(scenario):
    elements, make_operator, batch_size = scenario
    scalar = run_pipeline(list(elements), make_operator())
    batched = run_pipeline(list(elements), make_operator(), batch_size=batch_size)

    assert len(scalar.results) == len(batched.results)
    for expected, actual in zip(scalar.results, batched.results):
        assert (
            expected.key,
            expected.window,
            expected.count,
            expected.emit_time,
            expected.latency,
            expected.flushed,
        ) == (
            actual.key,
            actual.window,
            actual.count,
            actual.emit_time,
            actual.latency,
            actual.flushed,
        )
        assert close(expected.value, actual.value)
    assert scalar.metrics.late_dropped == batched.metrics.late_dropped
    assert scalar.metrics.released_count == batched.metrics.released_count
    assert len(scalar.observed_errors) == len(batched.observed_errors)
    for expected, actual in zip(scalar.observed_errors, batched.observed_errors):
        assert close(expected, actual)


class CountingBuffer(SortingBuffer):
    """Counts the arrivals that are due the moment they are offered."""

    __slots__ = ("due",)

    def __init__(self) -> None:
        super().__init__()
        self.due = 0

    def push_release_one(self, element, threshold):
        self.due += element.event_time <= threshold
        return super().push_release_one(element, threshold)


class TwoCallBuffer(SortingBuffer):
    """The scalar verb spelled as the two calls it stands for."""

    __slots__ = ()

    def push_release_one(self, element, threshold):
        self.push(element)
        return self.release_until(threshold)


@pytest.mark.parametrize("mode", ["tree", "naive"])
def test_late_heavy_burst_batched_matches_scalar(mode):
    """A delay burst under AQ-K: the feedback loop holds K below the
    delays, so half the burst's arrivals and over 30% of the stream are due
    the moment they arrive (the scalar verb's no-heap path).  The scalar
    run equals one through ``push`` + ``release_until`` in every counter,
    and the batched run (chunks of 64) equals both, except that its
    high-water mark also counts a chunk pushed ahead of its release."""
    rng = np.random.default_rng(21)
    duration = 240.0
    stream = inject_disorder(
        generate_stream(duration=duration, rate=100, rng=rng, keys=("a", "b", "c", "d")),
        BurstyDelay(
            ExponentialDelay(0.3), ExponentialDelay(0.5), duration / 3, 2 * duration / 3
        ),
        rng,
    )

    def run(buffer, batch_size=0):
        aggregate = SumAggregate()
        handler = AQKSlackHandler(QualityTarget(0.05), aggregate, window_size=8.0)
        handler._buffer = buffer
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(8.0, 0.5), aggregate, handler, mode=mode
        )
        return run_pipeline(list(stream), operator, batch_size=batch_size), handler

    counting = CountingBuffer()
    scalar, handler = run(counting)
    assert counting.due >= 0.3 * len(stream)
    assert scalar.metrics.late_dropped > 0
    two_calls, two_call_handler = run(TwoCallBuffer())
    batched, batched_handler = run(SortingBuffer(), batch_size=64)
    for output, other in ((two_calls, two_call_handler), (batched, batched_handler)):
        assert output.results == scalar.results
        assert other.adaptations == handler.adaptations
        assert output.metrics.late_dropped == scalar.metrics.late_dropped
        assert other.released_count() == handler.released_count()
    assert two_call_handler.max_buffered_count() == handler.max_buffered_count()
    extra = batched_handler.max_buffered_count() - handler.max_buffered_count()
    assert 0 <= extra <= 64
