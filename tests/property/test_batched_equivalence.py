"""Batched runs emit what the scalar run emits.

The property draws cells of :mod:`tests.matrix` on the batched driver and
holds them bit-identical to the scalar cell (R1).  Random draws rarely
take the path where an arrival is due the moment it is offered; the fixed
late-heavy burst takes it for a third of the stream, under AQ-K's
feedback loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import SumAggregate
from repro.engine.buffer import SortingBuffer
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import BurstyDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream
from tests.matrix import MATRIX, check, draws


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


@MATRIX
@given(draws(driver="batched"))
def test_batched_run_matches_scalar(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)


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
