"""Shared disorder handling for multiple concurrent queries.

When several continuous queries with different quality requirements read
the same stream, buffering it once per query wastes memory and repeats
work.  :class:`SharedAQKBuffer` keeps **one** copy of the buffered elements
and serves each query through its own release cursor:

* each registered query gets its own adaptive slack ``K_i`` (computed with
  the same estimator/controller machinery as a private
  :class:`~repro.core.aqk.AQKSlackHandler`),
* a buffered element is delivered to query *i* once the shared clock
  exceeds its timestamp by ``K_i`` — strict queries see it later, loose
  queries earlier,
* the element is dropped from the shared buffer once **every** query has
  passed it.

Memory therefore scales with the *strictest* requirement instead of the
sum over queries — the claim experiment E11 quantifies.
"""

from __future__ import annotations

import bisect
import math

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import DisorderHandler
from repro.errors import ConfigurationError
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS, EventTimeFrontier, EventTimeStamp


class _QueryCursor(DisorderHandler):
    """Per-query view of the shared buffer, exposed as a DisorderHandler.

    The cursor does not buffer anything itself: the shared buffer pushes
    ready batches into it, and a downstream operator consumes them through
    the usual ``offer`` protocol (``offer`` returns whatever the shared
    buffer has staged for this query since the last call).
    """

    def __init__(self, owner: "SharedAQKBuffer", query_id: str) -> None:
        self._owner = owner
        self.query_id = query_id
        self._staged: list[StreamElement] = []
        self._frontier_value = float("-inf")

    def stage(self, elements: list[StreamElement], frontier: EventTimeStamp) -> None:
        self._staged.extend(elements)
        if frontier > self._frontier_value:
            self._frontier_value = frontier

    def offer(self, element: StreamElement) -> list[StreamElement]:
        # The element was already offered to the shared buffer by the
        # dispatcher; this call just drains what was staged for this query.
        staged = self._staged
        self._staged = []
        return staged

    def flush(self) -> list[StreamElement]:
        staged = self._staged
        self._staged = []
        self._frontier_value = float("inf")
        return staged

    @property
    def frontier(self) -> EventTimeStamp:
        return self._frontier_value

    @property
    def current_slack(self) -> DurationS:
        return self._owner.slack_of(self.query_id)

    def buffered_count(self) -> int:
        return len(self._staged)

    def max_buffered_count(self) -> int:
        return self._owner.max_buffered

    def observe_error(self, error: float) -> None:
        self._owner.observe_error(self.query_id, error)


class SharedAQKBuffer:
    """One buffer, many quality-driven release schedules."""

    def __init__(self) -> None:
        self._advisors: dict[str, AQKSlackHandler] = {}
        self._cursors: dict[str, _QueryCursor] = {}
        self._released_upto: dict[str, int] = {}
        # Elements sorted by (event_time, seq); parallel list of sort keys.
        self._elements: list[StreamElement] = []
        self._keys: list[tuple[float, int]] = []
        self._clock = EventTimeFrontier()
        self.max_buffered = 0
        self.late_for_query: dict[str, int] = {}
        self._frontiers: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # registration

    def register(
        self,
        query_id: str,
        target: QualityTarget | LatencyBudget,
        aggregate: AggregateFunction | str,
        window_size: float | None = None,
        **aqk_kwargs,
    ) -> _QueryCursor:
        """Register a query; returns the handler to give its operator."""
        if query_id in self._advisors:
            raise ConfigurationError(f"query id {query_id!r} already registered")
        if self._elements or self._clock.count:
            raise ConfigurationError("register all queries before offering elements")
        advisor = AQKSlackHandler(
            target=target,
            aggregate=aggregate,
            window_size=window_size,
            **aqk_kwargs,
        )
        self._advisors[query_id] = advisor
        cursor = _QueryCursor(self, query_id)
        self._cursors[query_id] = cursor
        self._released_upto[query_id] = 0
        self.late_for_query[query_id] = 0
        self._frontiers[query_id] = float("-inf")
        return cursor

    def handler_for(self, query_id: str) -> _QueryCursor:
        """The disorder handler to wire into this query's operator."""
        return self._cursors[query_id]

    def slack_of(self, query_id: str) -> float:
        """Current adaptive slack of the given query."""
        return self._advisors[query_id].k

    def observe_error(self, query_id: str, error: float) -> None:
        """Route one observed-error sample to the query's advisor."""
        self._advisors[query_id].observe_error(error)

    # ------------------------------------------------------------------ #
    # dispatch

    def _insert(self, element: StreamElement) -> None:
        key = (element.event_time, element.seq)
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._elements.insert(index, element)
        # Keep per-query positions consistent: an insert below a cursor's
        # released prefix means this element is late for that query.
        for query_id, upto in self._released_upto.items():
            if index < upto:
                self._released_upto[query_id] = upto + 1
                self.late_for_query[query_id] += 1
                # Deliver immediately: downstream counts it late.
                self._cursors[query_id].stage([element], self._frontiers[query_id])
        if len(self._elements) > self.max_buffered:
            self.max_buffered = len(self._elements)

    def offer(self, element: StreamElement) -> None:
        """Feed one arriving element; stages releases on every cursor."""
        if not self._advisors:
            raise ConfigurationError("no queries registered")
        if element.arrival_time is None:
            raise ConfigurationError("shared buffer requires arrival timestamps")
        self._clock.observe(element.event_time)
        self._insert(element)
        for query_id, advisor in self._advisors.items():
            # Let each advisor observe the element and adapt its slack; the
            # advisor's own buffer is unused (we bypass it), so we ask for
            # its K rule only.
            slack = advisor.slack_for(element)
            frontier = self._frontiers[query_id]
            candidate = self._clock.value - slack
            if candidate > frontier:
                frontier = candidate
                self._frontiers[query_id] = frontier
            upto = self._released_upto[query_id]
            release_end = bisect.bisect_right(self._keys, (frontier, 2**62))
            if release_end > upto:
                batch = self._elements[upto:release_end]
                self._released_upto[query_id] = release_end
                self._cursors[query_id].stage(batch, frontier)
        self._evict()

    def _evict(self) -> None:
        min_upto = min(self._released_upto.values())
        if min_upto > 0:
            del self._elements[:min_upto]
            del self._keys[:min_upto]
            for query_id in self._released_upto:
                self._released_upto[query_id] -= min_upto  # repro: numeric=exact - integer cursor rebase

    def finish(self) -> None:
        """Stream ended: stage all remaining elements on every cursor."""
        for query_id in self._advisors:
            upto = self._released_upto[query_id]
            batch = self._elements[upto:]
            self._released_upto[query_id] = len(self._elements)
            self._cursors[query_id].stage(batch, float("inf"))
            self._frontiers[query_id] = float("inf")
        self._evict()

    def buffered_count(self) -> int:
        """Elements currently held in the shared buffer."""
        return len(self._elements)


def run_shared(
    elements: list[StreamElement],
    buffer: SharedAQKBuffer,
    operators: dict[str, object],
) -> dict[str, list]:
    """Drive a shared buffer feeding one operator per query.

    Args:
        elements: Arrival-ordered stream.
        buffer: Shared buffer with every query registered; each operator in
            ``operators`` must use ``buffer.handler_for(query_id)`` as its
            disorder handler.
        operators: ``query_id -> operator`` (window aggregate operators).

    Returns:
        ``query_id -> list of WindowResult``.
    """
    results: dict[str, list] = {query_id: [] for query_id in operators}
    for element in elements:
        buffer.offer(element)
        for query_id, operator in operators.items():
            results[query_id].extend(operator.process(element))
    buffer.finish()
    for query_id, operator in operators.items():
        results[query_id].extend(operator.finish())
    return results
