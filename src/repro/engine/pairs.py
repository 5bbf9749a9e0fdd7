"""Event-time pair matching under disorder handling: joins and patterns.

:class:`PairMatchOperator` emits, per key, every pair of a *first-role* and
a *second-role* element whose event-time gap ``second - first`` is in
bound.  The two query shapes the repo has are two constructors over it:

* :class:`IntervalJoinOperator` — a side selector names each element
  ``"left"`` (first) or ``"right"`` (second) and a pair matches when
  ``|gap| <= bound``;
* :class:`SequencePatternOperator` — *"A followed by B within t seconds"*:
  two predicates give the roles (an element may play both) and a pair
  matches when ``0 < gap <= within``.

Pairs are the most disorder-sensitive results: a late element does not
shift a value, it makes whole pairs appear or disappear.  The operator
therefore consumes its input through a
:class:`~repro.engine.handlers.DisorderHandler` and keeps each released
element until the frontier proves no in-bound partner can still arrive;
an element later than the handler's slack finds its partners pruned and
loses those pairs — the pair analogue of dropped-late aggregation input,
and the quantity the quality metric scores (*pair recall*).

With ``shadow_horizon > 0`` pruned elements move to a bounded *shadow
store* instead of vanishing, and every ingested element also counts its
in-bound partners there: pairs that were **lost**.  As the window driver
reports retirement errors, this operator reports its own observed error,
the lost-pair fraction, to ``handler.observe_error`` (``feedback_every``;
the constructors in :mod:`repro.core.pair_quality` turn it on).
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.engine.handlers import DisorderHandler
from repro.engine.operator import Operator
from repro.errors import ConfigurationError
from repro.obs.trace import Tracer
from repro.streams.element import StreamElement
from repro.streams.timebase import DurationS, EventTimeStamp

#: Per role, ``key -> elements`` in release order.
_RoleStore = dict[object, list[StreamElement]]


@dataclass(frozen=True, slots=True)
class PairMatch:
    """One emitted pair; for a join the first role is the left side."""

    key: object
    first_time: float
    second_time: float
    first_value: object
    second_value: object
    emit_time: float

    @property
    def latency(self) -> DurationS:
        """Delay of the pair past the moment both events had happened."""
        return self.emit_time - max(self.first_time, self.second_time)


def _drop_before(
    store: _RoleStore, threshold: EventTimeStamp, into: _RoleStore | None = None
) -> None:
    """Drop every element older than ``threshold``, moving it to ``into``."""
    for key, elements in list(store.items()):
        kept = [el for el in elements if el.event_time >= threshold]
        if into is not None and len(kept) < len(elements):
            into.setdefault(key, []).extend(
                el for el in elements if el.event_time < threshold
            )
        if kept:
            store[key] = kept
        else:
            del store[key]


class PairMatchOperator(Operator):
    """Per-key first/second pair matching with loss accounting.

    A subclass says which roles an element plays (:meth:`roles_of`) and
    which gaps match (:meth:`in_bound`); ``prune_horizon`` is the largest
    ``|gap|`` that can match, so an element is dropped once the frontier
    is more than that past it.
    """

    #: Arrivals between two recall-loss reports to the handler; 0 reports
    #: nothing.  An attribute, not a constructor argument: the quality-driven
    #: constructors set it.
    feedback_every = 0

    def __init__(
        self,
        prune_horizon: DurationS,
        handler: DisorderHandler,
        shadow_horizon: DurationS = 0.0,
    ) -> None:
        if shadow_horizon < 0:
            raise ConfigurationError(
                f"shadow_horizon must be non-negative, got {shadow_horizon}"
            )
        self.prune_horizon = prune_horizon
        self.handler = handler
        self.shadow_horizon = shadow_horizon
        # (first-role, second-role) candidates, and what was pruned from them.
        self._stores: tuple[_RoleStore, _RoleStore] = ({}, {})
        self._shadows: tuple[_RoleStore, _RoleStore] = ({}, {})
        self.emitted = 0
        self.lost = 0
        self.late_dropped = 0
        self._prune_frontier = float("-inf")
        self._last_arrival = 0.0
        self._arrivals = 0
        self._reported = (0, 0)  # (emitted, lost) at the last report

    @abstractmethod
    def roles_of(self, element: StreamElement) -> tuple[bool, bool]:
        """``(is_first, is_second)``: the roles ``element`` can play."""

    @abstractmethod
    def in_bound(self, gap: DurationS) -> bool:
        """Whether ``second.event_time - first.event_time == gap`` matches."""

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to the handler (and its buffer)."""
        self.handler.set_tracer(tracer)

    @property
    def current_slack(self) -> DurationS:
        """The handler's slack currently in effect."""
        return self.handler.current_slack

    def _partners(
        self,
        element: StreamElement,
        stores: tuple[_RoleStore, _RoleStore],
        roles: tuple[bool, bool],
    ) -> Iterator[tuple[StreamElement, StreamElement]]:
        """Every in-bound ``(first, second)`` of ``element`` with a stored
        partner; pairs it completes as the second come first."""
        firsts, seconds = stores
        is_first, is_second = roles
        time = element.event_time
        in_bound = self.in_bound
        if is_second:
            for first in firsts.get(element.key, ()):
                if in_bound(time - first.event_time):
                    yield first, element
        if is_first:
            # Watermark handlers release unsorted: the second may be stored
            # before its first arrives.
            for second in seconds.get(element.key, ()):
                if in_bound(second.event_time - time):
                    yield element, second

    def _ingest(self, element: StreamElement, matches: list[PairMatch]) -> None:
        roles = self.roles_of(element)
        if element.event_time < self._prune_frontier:
            # Partners below the prune line are gone: their pairs are lost.
            self.late_dropped += 1
        if self.shadow_horizon > 0:
            # Every element is checked, not only flagged-late ones: an
            # on-time element can have in-bound partners that were pruned
            # while it was in flight.
            self.lost += sum(1 for _ in self._partners(element, self._shadows, roles))
        found = [
            PairMatch(
                element.key, first.event_time, second.event_time,
                first.value, second.value, self._last_arrival,
            )
            for first, second in self._partners(element, self._stores, roles)
        ]
        self.emitted += len(found)
        matches += found
        for plays, store in zip(roles, self._stores):
            if plays:
                store.setdefault(element.key, []).append(element)

    def _prune(self, frontier: EventTimeStamp) -> None:
        threshold = frontier - self.prune_horizon
        if threshold <= self._prune_frontier:
            return
        self._prune_frontier = threshold
        shadowing = self.shadow_horizon > 0
        for store, shadow in zip(self._stores, self._shadows):
            _drop_before(store, threshold, shadow if shadowing else None)
            _drop_before(shadow, threshold - self.shadow_horizon)  # empty unless shadowing

    def _feed_back(self) -> None:
        """Every ``feedback_every`` arrivals, report the lost-pair fraction
        of the pairs decided since the last report."""
        self._arrivals += 1
        if self._arrivals % self.feedback_every:
            return
        emitted = self.emitted - self._reported[0]
        lost = self.lost - self._reported[1]
        self._reported = (self.emitted, self.lost)
        if emitted + lost > 0:
            self.handler.observe_error(lost / (emitted + lost))

    def process(self, element: StreamElement) -> list[PairMatch]:
        """Consume one arriving element; return the pairs it completed."""
        arrival = element.arrival_time
        if arrival is not None and arrival > self._last_arrival:
            self._last_arrival = arrival
        matches: list[PairMatch] = []
        for out in self.handler.offer(element):
            self._ingest(out, matches)
        self._prune(self.handler.frontier)
        if self.feedback_every:
            self._feed_back()
        return matches

    def finish(self) -> list[PairMatch]:
        """Stream ended: flush the handler and emit the remaining pairs."""
        matches: list[PairMatch] = []
        for out in self.handler.flush():
            self._ingest(out, matches)
        return matches

    def stored_count(self) -> int:
        """Candidate elements currently retained, both roles."""
        return sum(len(els) for store in self._stores for els in store.values())

    def shadow_count(self) -> int:
        """Pruned elements retained in the shadow store."""
        return sum(len(els) for store in self._shadows for els in store.values())

    def recall_loss_estimate(self) -> float:
        """Observed fraction of pairs lost to lateness (a lower bound)."""
        total = self.emitted + self.lost
        return self.lost / total if total else 0.0


class IntervalJoinOperator(PairMatchOperator):
    """Equi-key interval join: ``|t_left - t_right| <= bound``."""

    def __init__(
        self,
        bound: DurationS,
        handler: DisorderHandler,
        side_selector: Callable[[StreamElement], str],
        shadow_horizon: DurationS = 0.0,
    ) -> None:
        if bound < 0:
            raise ConfigurationError(f"bound must be non-negative, got {bound}")
        super().__init__(bound, handler, shadow_horizon)
        self.bound = bound
        self.side_selector = side_selector

    def roles_of(self, element: StreamElement) -> tuple[bool, bool]:
        """``"left"`` plays the first role, ``"right"`` the second."""
        side = self.side_selector(element)
        if side not in ("left", "right"):
            raise ConfigurationError(f"side selector returned {side!r}")
        return side == "left", side == "right"

    def in_bound(self, gap: DurationS) -> bool:
        """``|gap| <= bound``."""
        return abs(gap) <= self.bound


class SequencePatternOperator(PairMatchOperator):
    """Detects ``A -> B within t`` per key: ``0 < t_B - t_A <= within``."""

    def __init__(
        self,
        first_predicate: Callable[[StreamElement], bool],
        second_predicate: Callable[[StreamElement], bool],
        within: DurationS,
        handler: DisorderHandler,
        shadow_horizon: DurationS = 0.0,
    ) -> None:
        if within <= 0:
            raise ConfigurationError(f"within must be positive, got {within}")
        super().__init__(within, handler, shadow_horizon)
        self.first_predicate = first_predicate
        self.second_predicate = second_predicate
        self.within = within

    def roles_of(self, element: StreamElement) -> tuple[bool, bool]:
        """The two predicates; an element may satisfy both."""
        return self.first_predicate(element), self.second_predicate(element)

    def in_bound(self, gap: DurationS) -> bool:
        """``0 < gap <= within`` (simultaneous events do not match)."""
        return 0.0 < gap <= self.within


def oracle_pairs(
    elements: list[StreamElement],
    roles_of: Callable[[StreamElement], tuple[bool, bool]],
    in_bound: Callable[[DurationS], bool],
) -> set[tuple[object, float, float]]:
    """All ``(key, first_time, second_time)`` of the complete stream."""
    firsts: _RoleStore = {}
    seconds: _RoleStore = {}
    for element in elements:
        is_first, is_second = roles_of(element)
        if is_first:
            firsts.setdefault(element.key, []).append(element)
        if is_second:
            seconds.setdefault(element.key, []).append(element)
    return {
        (key, first.event_time, second.event_time)
        for key, candidates in firsts.items()
        for first in candidates
        for second in seconds.get(key, ())
        if in_bound(second.event_time - first.event_time)
    }


def pair_recall(
    matches: list[PairMatch], oracle: set[tuple[object, float, float]]
) -> float:
    """Fraction of the true pairs actually emitted (NaN without any)."""
    if not oracle:
        return float("nan")
    emitted = {(m.key, m.first_time, m.second_time) for m in matches}
    return len(emitted & oracle) / len(oracle)
