"""Tests for the baseline disorder handlers."""

import math

import pytest

from repro.core.spec import LatencyBudget
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.multisource import MultiSourceWatermarkHandler
from repro.engine.watermarks import FixedLagWatermarkHandler
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay, UniformDelay
from repro.streams.disorder import inject_disorder, measure_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def drive(handler, elements):
    """Feed all elements; return (list of released, final frontier)."""
    released = []
    frontiers = []
    for element in elements:
        released.extend(handler.offer(element))
        frontiers.append(handler.frontier)
    released.extend(handler.flush())
    return released, frontiers


class TestNoBufferHandler:
    def test_releases_immediately(self):
        handler = NoBufferHandler()
        el = StreamElement(event_time=1.0, value=0, arrival_time=1.5)
        assert handler.offer(el) == [el]
        assert handler.buffered_count() == 0

    def test_frontier_is_max_event_time(self):
        handler = NoBufferHandler()
        handler.offer(StreamElement(event_time=5.0, value=0, arrival_time=5.0))
        handler.offer(StreamElement(event_time=3.0, value=0, arrival_time=6.0))
        assert handler.frontier == 5.0

    def test_zero_slack(self):
        assert NoBufferHandler().current_slack == 0.0

    def test_flush_empty(self):
        assert NoBufferHandler().flush() == []


class TestKSlackHandler:
    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KSlackHandler(-1.0)

    def test_holds_back_by_k(self):
        handler = KSlackHandler(2.0)
        first = StreamElement(event_time=0.0, value=0, arrival_time=0.0)
        assert handler.offer(first) == []  # frontier = -2, nothing out
        second = StreamElement(event_time=2.0, value=0, arrival_time=2.0)
        released = handler.offer(second)
        assert released == [first]  # frontier reached 0

    def test_frontier_lags_clock_by_k(self):
        handler = KSlackHandler(2.0)
        handler.offer(StreamElement(event_time=10.0, value=0, arrival_time=10.0))
        assert handler.frontier == 8.0

    def test_frontier_monotone(self, rng):
        stream = inject_disorder(
            generate_stream(duration=20, rate=50, rng=rng), UniformDelay(0, 1), rng
        )
        handler = KSlackHandler(0.5)
        __, frontiers = drive(handler, stream)
        assert frontiers == sorted(frontiers)

    def test_releases_everything_exactly_once(self, rng):
        stream = inject_disorder(
            generate_stream(duration=20, rate=50, rng=rng), ExponentialDelay(0.5), rng
        )
        handler = KSlackHandler(1.0)
        released, __ = drive(handler, stream)
        assert sorted(released, key=lambda e: e.seq) == sorted(
            stream, key=lambda e: e.seq
        )

    def test_reorders_up_to_k(self, rng):
        stream = generate_stream(duration=30, rate=50, rng=rng)
        disordered = inject_disorder(stream, UniformDelay(0, 1.0), rng)
        stats = measure_disorder(disordered)
        # K at least the max displacement restores perfect order.
        handler = KSlackHandler(stats.max_displacement)
        released, __ = drive(handler, disordered)
        event_times = [e.event_time for e in released]
        assert event_times == sorted(event_times)

    def test_insufficient_k_leaves_some_disorder(self, rng):
        stream = generate_stream(duration=30, rate=50, rng=rng)
        disordered = inject_disorder(stream, UniformDelay(0, 2.0), rng)
        handler = KSlackHandler(0.01)
        released, __ = drive(handler, disordered)
        event_times = [e.event_time for e in released]
        assert event_times != sorted(event_times)

    def test_buffer_telemetry(self, rng):
        stream = inject_disorder(
            generate_stream(duration=10, rate=50, rng=rng), UniformDelay(0, 0.5), rng
        )
        handler = KSlackHandler(2.0)
        drive(handler, stream)
        assert handler.max_buffered_count() > 0

    def test_describe_mentions_k(self):
        assert "1.5" in KSlackHandler(1.5).describe()


class TestMPKSlackHandler:
    def test_k_grows_to_max_delay(self, rng):
        stream = inject_disorder(
            generate_stream(duration=30, rate=30, rng=rng), UniformDelay(0, 1.5), rng
        )
        stats = measure_disorder(stream)
        handler = MPKSlackHandler()
        drive(handler, stream)
        assert handler.k == pytest.approx(stats.max_delay)

    def test_k_never_shrinks(self, rng):
        stream = inject_disorder(
            generate_stream(duration=30, rate=30, rng=rng), ExponentialDelay(0.5), rng
        )
        handler = MPKSlackHandler()
        ks = []
        for element in stream:
            handler.offer(element)
            ks.append(handler.k)
        assert ks == sorted(ks)

    def test_frontier_monotone_while_k_grows(self, rng):
        stream = inject_disorder(
            generate_stream(duration=30, rate=30, rng=rng), ExponentialDelay(0.5), rng
        )
        handler = MPKSlackHandler()
        __, frontiers = drive(handler, stream)
        assert frontiers == sorted(frontiers)

    def test_releases_everything(self, rng):
        stream = inject_disorder(
            generate_stream(duration=20, rate=40, rng=rng), ExponentialDelay(0.5), rng
        )
        handler = MPKSlackHandler()
        released, __ = drive(handler, stream)
        assert len(released) == len(stream)

    def test_handles_elements_without_arrival(self):
        handler = MPKSlackHandler()
        handler.offer(StreamElement(event_time=1.0, value=0))
        assert handler.k == 0.0


def source_of(element):
    return element.key


#: Every constructor argument that is a duration, as a one-argument
#: constructor.
DURATIONS = {
    "k-slack K": KSlackHandler,
    "fixed-lag lag": FixedLagWatermarkHandler,
    "multi-source lag": lambda x: MultiSourceWatermarkHandler(source_of, lag=x),
    "multi-source idle timeout": lambda x: MultiSourceWatermarkHandler(source_of, idle_timeout=x),
    "latency budget": LatencyBudget,
}


@pytest.mark.parametrize("value", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("build", DURATIONS.values(), ids=DURATIONS.keys())
def test_nan_and_negative_durations_are_rejected(build, value):
    # ``x < 0`` lets NaN through: a NaN K keeps the frontier at -inf, so
    # everything stays buffered until flush.
    with pytest.raises(ConfigurationError):
        build(value)
    build(math.inf)
