"""Watermark-based disorder handling (the Flink-style baseline).

Watermark handlers release elements immediately (no reordering) and advance
the frontier according to a watermark policy:

* :class:`FixedLagWatermarkHandler` — frontier = newest event time − lag,
  updated every ``period`` seconds of arrival time.  This is Flink's
  ``BoundedOutOfOrderness`` watermark.
* :class:`HeuristicWatermarkHandler` — the lag is re-estimated periodically
  as a configured quantile of recently observed delays; a non-adaptive
  cousin of the paper's approach (it tracks *delays*, not *result quality*).
* :class:`PerfectWatermarkHandler` — an oracle that knows, for each frontier
  advance, that no earlier event is still in flight.  Implemented by
  pre-scanning the arrival-ordered stream; used to isolate quality loss
  caused by the policy from loss caused by genuinely unbounded lateness.
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
from repro.engine.handlers import Checkpoints, DisorderHandler


class FixedLagWatermarkHandler(DisorderHandler):
    """Periodic watermark at ``newest event time - lag``."""

    name = "watermark-fixed"

    def __init__(self, lag: DurationS, period: DurationS = 0.0) -> None:
        if not lag >= 0:
            raise ConfigurationError(f"lag must be non-negative, got {lag}")
        if not period >= 0:
            raise ConfigurationError(f"period must be non-negative, got {period}")
        self.lag = lag
        self.period = period
        self._clock = EventTimeFrontier()
        self._front = MonotoneFrontier()
        self._last_emit_arrival = float("-inf")

    def _maybe_advance(self, arrival_time: float | None) -> None:
        if self.period > 0 and arrival_time is not None:
            if arrival_time - self._last_emit_arrival < self.period:
                return
            self._last_emit_arrival = arrival_time
        self._front.advance(self._clock.value - self.lag)

    def offer(self, element: StreamElement) -> list[StreamElement]:
        self._clock.observe(element.event_time)
        self._maybe_advance(element.arrival_time)
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
        return f"watermark(lag={self.lag:g}s, period={self.period:g}s)"


class HeuristicWatermarkHandler(DisorderHandler):
    """Watermark whose lag tracks a quantile of recently observed delays.

    Delay-driven (not quality-driven) adaptation: it aims at "release after
    the p-th percentile delay" regardless of what that does to result error.
    """

    name = "watermark-heuristic"

    def __init__(
        self,
        delay_quantile: float = 0.95,
        window_size: int = 1000,
        update_every: int = 100,
        initial_lag: DurationS = 0.0,
    ) -> None:
        if not 0.0 <= delay_quantile <= 1.0:
            raise ConfigurationError(
                f"delay_quantile must lie in [0,1], got {delay_quantile}"
            )
        if not (window_size > 0 and update_every > 0):
            raise ConfigurationError("window_size and update_every must be positive")
        if not initial_lag >= 0:
            raise ConfigurationError(
                f"initial_lag must be non-negative, got {initial_lag}"
            )
        self.delay_quantile = delay_quantile
        self.window_size = window_size
        self.update_every = update_every
        self.lag = initial_lag
        self._delays: list[float] = []
        self._since_update = 0
        self._clock = EventTimeFrontier()
        self._front = MonotoneFrontier()

    def offer(self, element: StreamElement) -> list[StreamElement]:
        if element.arrival_time is not None:
            self._delays.append(element.delay)
            if len(self._delays) > self.window_size:
                del self._delays[: len(self._delays) - self.window_size]
            self._since_update += 1
            if self._since_update >= self.update_every:
                self._since_update = 0
                ordered = sorted(self._delays)
                rank = min(
                    len(ordered) - 1, int(self.delay_quantile * (len(ordered) - 1))
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
            f"watermark-heuristic(q={self.delay_quantile:g}, "
            f"window={self.window_size})"
        )


class PerfectWatermarkHandler(DisorderHandler):
    """Oracle watermarks: exact results at the minimum possible latency.

    Built from the full arrival-ordered stream ahead of time: after the
    i-th arrival the frontier is the largest event time T such that every
    element with ``event_time <= T`` has already arrived.  No real system
    can implement this; it lower-bounds the latency of any exact policy.
    """

    name = "watermark-perfect"

    def __init__(self, arrival_ordered: list[StreamElement]) -> None:
        # frontier after arrival i = min over j > i of event_time[j], capped
        # by the running max of event times seen so far; computed via a
        # suffix-minimum scan.
        n = len(arrival_ordered)
        suffix_min = [float("inf")] * (n + 1)
        for index in range(n - 1, -1, -1):
            suffix_min[index] = min(
                suffix_min[index + 1], arrival_ordered[index].event_time
            )
        self._frontiers: list[float] = []
        running_max = float("-inf")
        for index, element in enumerate(arrival_ordered):
            running_max = max(running_max, element.event_time)
            # Everything with event_time < suffix_min[index+1] has arrived.
            self._frontiers.append(min(running_max, suffix_min[index + 1]))
        self._position = 0
        self._front = MonotoneFrontier()

    def offer(self, element: StreamElement) -> list[StreamElement]:
        if self._position >= len(self._frontiers):
            raise ConfigurationError(
                "PerfectWatermarkHandler saw more elements than it was built for"
            )
        candidate = self._frontiers[self._position]
        self._position += 1
        self._front.advance(candidate)
        return [element]

    def offer_many(
        self, elements: list[StreamElement]
    ) -> tuple[list[StreamElement], Checkpoints]:
        n = len(elements)
        start = self._position
        if start + n > len(self._frontiers):
            raise ConfigurationError(
                "PerfectWatermarkHandler saw more elements than it was built for"
            )
        value = self._front.value
        frontiers = self._frontiers
        checkpoints: Checkpoints = []
        append = checkpoints.append
        for index in range(n):
            candidate = frontiers[start + index]
            if candidate > value:
                value = candidate
            append((index + 1, value))
        self._position = start + n
        self._front.advance(value)
        return list(elements), checkpoints

    def flush(self) -> list[StreamElement]:
        self._front.close()
        return []

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    def released_count(self) -> int:
        return self._position
