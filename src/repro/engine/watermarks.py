"""Watermark-based disorder handling (the Flink-style baselines).

Watermark handlers release elements immediately (no reordering) and advance
the frontier on every arrival according to a watermark policy:

* :class:`FixedLagWatermarkHandler` — frontier = newest event time − lag.
  This is Flink's ``BoundedOutOfOrderness`` watermark.
* :class:`HeuristicWatermarkHandler` — the lag is re-estimated every
  :data:`LAG_UPDATE_EVERY` arrivals as the :data:`LAG_DELAY_QUANTILE`
  quantile of the last :data:`LAG_SAMPLE_SIZE` delays; a non-adaptive
  cousin of the paper's approach (it tracks *delays*, not *result quality*).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import (
    DurationS,
    EventTimeFrontier,
    EventTimeStamp,
    MonotoneFrontier,
)
from repro.engine.handlers import DisorderHandler

#: The delay quantile :class:`HeuristicWatermarkHandler` lags by.
LAG_DELAY_QUANTILE = 0.95

#: How many of the most recent delays the heuristic lag is read from.
LAG_SAMPLE_SIZE = 1000

#: Arrivals between two re-estimates of the heuristic lag.
LAG_UPDATE_EVERY = 100


class FixedLagWatermarkHandler(DisorderHandler):
    """Watermark at ``newest event time - lag``, advanced on every arrival."""

    name = "watermark-fixed"
    takes_feedback = False

    def __init__(self, lag: DurationS) -> None:
        if not lag >= 0:
            raise ConfigurationError(f"lag must be non-negative, got {lag}")
        self.lag = lag
        self._clock = EventTimeFrontier()
        self._front = MonotoneFrontier()

    def offer(self, element: StreamElement) -> list[StreamElement]:
        self._clock.observe(element.event_time)
        self._front.advance(self._clock.value - self.lag)
        return [element]

    def flush(self) -> list[StreamElement]:
        return []

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    @property
    def current_slack(self) -> DurationS:
        return self.lag

    def released_count(self) -> int:
        return self._clock.count

    def describe(self) -> str:
        return f"watermark(lag={self.lag:g}s, period=0s)"


class HeuristicWatermarkHandler(DisorderHandler):
    """Watermark whose lag tracks a quantile of recently observed delays.

    Delay-driven (not quality-driven) adaptation: it aims at "release after
    the 95th percentile delay" regardless of what that does to result error.
    The lag starts at 0 and is first set after :data:`LAG_UPDATE_EVERY`
    arrivals.
    """

    name = "watermark-heuristic"
    takes_feedback = False

    def __init__(self) -> None:
        self.lag: DurationS = 0.0
        self._delays: list[float] = []
        self._since_update = 0
        self._clock = EventTimeFrontier()
        self._front = MonotoneFrontier()

    def offer(self, element: StreamElement) -> list[StreamElement]:
        if element.arrival_time is not None:
            self._delays.append(element.delay)
            if len(self._delays) > LAG_SAMPLE_SIZE:
                del self._delays[: len(self._delays) - LAG_SAMPLE_SIZE]
            self._since_update += 1
            if self._since_update >= LAG_UPDATE_EVERY:
                self._since_update = 0
                ordered = sorted(self._delays)
                rank = min(
                    len(ordered) - 1, int(LAG_DELAY_QUANTILE * (len(ordered) - 1))
                )
                self.lag = ordered[rank]
        self._clock.observe(element.event_time)
        self._front.advance(self._clock.value - self.lag)
        return [element]

    def flush(self) -> list[StreamElement]:
        return []

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    @property
    def current_slack(self) -> DurationS:
        return self.lag

    def released_count(self) -> int:
        return self._clock.count

    def describe(self) -> str:
        return (
            f"watermark-heuristic(q={LAG_DELAY_QUANTILE:g}, "
            f"window={LAG_SAMPLE_SIZE})"
        )
