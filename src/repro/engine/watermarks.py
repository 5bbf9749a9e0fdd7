"""Watermark-based disorder handling (the Flink-style baselines).

Watermark handlers release elements immediately (no reordering) and advance
the frontier on every arrival; each is a lag rule over
:class:`~repro.engine.handlers.WatermarkHandler`:

* :class:`FixedLagWatermarkHandler` — frontier = newest event time − lag.
  This is Flink's ``BoundedOutOfOrderness`` watermark.
* :class:`HeuristicWatermarkHandler` — the lag is re-estimated every
  :data:`LAG_UPDATE_EVERY` arrivals as the :data:`LAG_DELAY_QUANTILE`
  quantile of the last :data:`LAG_SAMPLE_SIZE` delays; a non-adaptive
  cousin of the paper's approach (it tracks *delays*, not *result quality*).
* :class:`MultiSourceWatermarkHandler` — frontier = the **minimum** of
  per-source newest event times, minus a lag: the standard multi-input
  watermark rule, under which no window closes until *every* source has
  moved past it.  Build its input with
  :func:`repro.streams.multisource.merge_streams`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.sampling import SlidingDelaySample
from repro.engine.handlers import WatermarkHandler
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS, EventTimeStamp

#: The delay quantile :class:`HeuristicWatermarkHandler` lags by.
LAG_DELAY_QUANTILE = 0.95

#: How many of the most recent delays the heuristic lag is read from.
LAG_SAMPLE_SIZE = 1000

#: Arrivals between two re-estimates of the heuristic lag.
LAG_UPDATE_EVERY = 100


def _check_lag(lag: DurationS) -> None:
    if not lag >= 0:
        raise ConfigurationError(f"lag must be non-negative, got {lag}")


class FixedLagWatermarkHandler(WatermarkHandler):
    """Watermark at ``newest event time - lag``, advanced on every arrival."""

    name = "watermark-fixed"

    def __init__(self, lag: DurationS) -> None:
        _check_lag(lag)
        super().__init__()
        self.lag = lag

    def describe(self) -> str:
        return f"watermark(lag={self.lag:g}s)"


class HeuristicWatermarkHandler(WatermarkHandler):
    """Watermark whose lag tracks a quantile of recently observed delays.

    Delay-driven (not quality-driven) adaptation: it aims at "release after
    the 95th percentile delay" regardless of what that does to result error.
    The lag starts at 0 and is first set after :data:`LAG_UPDATE_EVERY`
    arrivals.
    """

    name = "watermark-heuristic"

    def __init__(self) -> None:
        super().__init__()
        self._delays = SlidingDelaySample(LAG_SAMPLE_SIZE)

    def watermark(self, element: StreamElement) -> EventTimeStamp:
        if element.arrival_time is not None:
            self._delays.observe(element.delay)
            if self._delays.count % LAG_UPDATE_EVERY == 0:
                self.lag = self._delays.quantile(LAG_DELAY_QUANTILE)
        return super().watermark(element)

    def describe(self) -> str:
        return (
            f"watermark-heuristic(q={LAG_DELAY_QUANTILE:g}, "
            f"window={LAG_SAMPLE_SIZE})"
        )


class MultiSourceWatermarkHandler(WatermarkHandler):
    """Frontier = min over live sources of (source max event time) - lag.

    A source silent for longer than ``idle_timeout`` (arrival time) is
    excluded from the minimum until it speaks again, so one dead sensor
    cannot stall the query — at the price of treating its stragglers as
    late, which is exactly the latency/quality tradeoff this library is
    about.  The source that just spoke is always live.
    """

    name = "multi-source-watermark"

    def __init__(
        self,
        source_of: Callable[[StreamElement], object],
        lag: DurationS = 0.0,
        idle_timeout: DurationS = float("inf"),
        expected_sources: set | None = None,
    ) -> None:
        """Args:
        source_of: Maps an element to its source id.
        lag: Fixed watermark lag subtracted from the per-source minimum.
        idle_timeout: Arrival-time silence after which a source is
            excluded from the minimum (its stragglers become late).
        expected_sources: When given, the frontier stays at ``-inf`` until
            every expected source has produced at least one element —
            otherwise a source that first speaks *after* the frontier
            advanced cannot retract it (frontiers are monotone), and its
            whole backlog counts late.
        """
        _check_lag(lag)
        if not idle_timeout > 0:
            raise ConfigurationError(
                f"idle_timeout must be positive, got {idle_timeout}"
            )
        super().__init__()
        self.source_of = source_of
        self.lag = lag
        self.idle_timeout = idle_timeout
        self.expected_sources = set(expected_sources) if expected_sources else None
        # source -> (max event time, last arrival on the handler's clock)
        self._sources: dict[object, tuple[float, float]] = {}
        self._now = float("-inf")

    def watermark(self, element: StreamElement) -> EventTimeStamp:
        if element.arrival_time is None:
            raise ConfigurationError(
                "MultiSourceWatermarkHandler requires arrival timestamps"
            )
        if element.arrival_time > self._now:
            self._now = element.arrival_time
        now = self._now
        source = self.source_of(element)
        max_event, __ = self._sources.get(source, (float("-inf"), now))
        self._sources[source] = (max(max_event, element.event_time), now)
        if self.expected_sources is not None and not self.expected_sources.issubset(
            self._sources
        ):
            return float("-inf")
        # Live is "not idle" as idle_sources() tests it, so the source that
        # just spoke (now - now is 0, or NaN on an infinite clock) is live.
        timeout = self.idle_timeout
        return min(
            max_event
            for max_event, last_arrival in self._sources.values()
            if not now - last_arrival > timeout
        ) - self.lag

    def flush(self) -> list[StreamElement]:
        self._front = float("inf")
        return []

    def source_count(self) -> int:
        """Number of distinct sources observed so far."""
        return len(self._sources)

    def idle_sources(self) -> list[object]:
        """Sources currently excluded from the frontier minimum."""
        return [
            source
            for source, (__, last_arrival) in self._sources.items()
            if self._now - last_arrival > self.idle_timeout
        ]
