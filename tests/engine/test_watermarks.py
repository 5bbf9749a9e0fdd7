"""Tests for watermark-based disorder handlers."""

import pytest

from repro.engine.watermarks import (
    FixedLagWatermarkHandler,
    HeuristicWatermarkHandler,
)
from repro.errors import ConfigurationError
from repro.streams.delay import UniformDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def el(ts, at):
    return StreamElement(event_time=ts, value=0.0, arrival_time=at)


class TestFixedLagWatermarkHandler:
    def test_releases_immediately_unordered(self):
        handler = FixedLagWatermarkHandler(lag=1.0)
        element = el(5.0, 5.2)
        assert handler.offer(element) == [element]

    def test_frontier_lags_max_event_time(self):
        handler = FixedLagWatermarkHandler(lag=1.0)
        handler.offer(el(5.0, 5.2))
        assert handler.frontier == 4.0
        handler.offer(el(3.0, 5.3))  # older event does not move frontier
        assert handler.frontier == 4.0

    def test_frontier_advances_on_every_arrival(self):
        handler = FixedLagWatermarkHandler(lag=0.0)
        for event_time in (0.0, 5.0, 11.0):
            handler.offer(el(event_time, event_time))
            assert handler.frontier == event_time

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedLagWatermarkHandler(lag=-1.0)

    def test_slack_is_lag(self):
        assert FixedLagWatermarkHandler(lag=2.5).current_slack == 2.5


class TestHeuristicWatermarkHandler:
    def test_lag_converges_to_delay_quantile(self, rng):
        """The lag settles at the 95th percentile of recent delays."""
        stream = inject_disorder(
            generate_stream(duration=60, rate=100, rng=rng),
            UniformDelay(0.0, 1.0),
            rng,
        )
        handler = HeuristicWatermarkHandler()
        assert handler.lag == 0.0
        for element in stream:
            handler.offer(element)
        assert handler.lag == pytest.approx(0.95, abs=0.05)
