"""Per-source frontier combination for multi-source streams.

:class:`MultiSourceWatermarkHandler` is a disorder handler whose frontier
is the **minimum** of per-source event-time frontiers (minus a lag), the
standard multi-input watermark rule: no window closes until *every* source
has moved past it.  A source silent for longer than ``idle_timeout``
(arrival time) is excluded from the minimum until it speaks again, so one
dead sensor cannot stall the query — at the price of treating its
stragglers as late, which is exactly the latency/quality tradeoff this
library is about.  Use :func:`repro.streams.multisource.merge_streams` to
build the merged input stream.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.handlers import DisorderHandler
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS, EventTimeStamp, MonotoneFrontier


class MultiSourceWatermarkHandler(DisorderHandler):
    """Frontier = min over live sources of (source max event time) - lag."""

    name = "multi-source-watermark"
    takes_feedback = False

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
        if not lag >= 0:
            raise ConfigurationError(f"lag must be non-negative, got {lag}")
        if not idle_timeout > 0:
            raise ConfigurationError(
                f"idle_timeout must be positive, got {idle_timeout}"
            )
        self.source_of = source_of
        self.lag = lag
        self.idle_timeout = idle_timeout
        self.expected_sources = set(expected_sources) if expected_sources else None
        # source -> (max event time, last arrival time)
        self._sources: dict[object, tuple[float, float]] = {}
        self._front = MonotoneFrontier()
        self._now = float("-inf")
        self._released = 0

    def _live_minimum(self) -> float:
        if self.expected_sources is not None and not self.expected_sources <= set(
            self._sources
        ):
            return float("-inf")
        live = [
            max_event
            for max_event, last_arrival in self._sources.values()
            if self._now - last_arrival <= self.idle_timeout
        ]
        if not live:
            # Every source idle: fall back to the global maximum so the
            # query keeps making progress.
            live = [max_event for max_event, __ in self._sources.values()]
        return min(live)

    def offer(self, element: StreamElement) -> list[StreamElement]:
        if element.arrival_time is None:
            raise ConfigurationError(
                "MultiSourceWatermarkHandler requires arrival timestamps"
            )
        self._now = max(self._now, element.arrival_time)
        source = self.source_of(element)
        max_event, __ = self._sources.get(source, (float("-inf"), float("-inf")))
        self._sources[source] = (
            max(max_event, element.event_time),
            element.arrival_time,
        )
        self._front.advance(self._live_minimum() - self.lag)
        self._released += 1
        return [element]

    def flush(self) -> list[StreamElement]:
        self._front.close()
        return []

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    def released_count(self) -> int:
        return self._released

    @property
    def current_slack(self) -> DurationS:
        return self.lag

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
