"""StreamSan: ASan-style runtime checkers for the disorder-handling engine.

The sanitizer wraps a pipeline's :class:`~repro.engine.handlers.DisorderHandler`
and :class:`~repro.engine.operator.Operator` in proxies that assert the
engine's core invariants *while real workloads execute*:

**Handler checkers** (:class:`SanitizingHandler`)

* ``frontier`` — the event-time frontier never decreases and is never NaN;
* ``release`` — no element lingers in the buffer at or below the frontier:
  the moment the frontier passes an element's event time it must have been
  released (late arrivals must be forwarded immediately), and by the end of
  ``flush`` every offered element must have been released;
* ``checkpoints`` — ``offer_many`` checkpoints are structurally consistent
  (one per offered element, end offsets and frontiers nondecreasing, final
  offset covering the released batch, final frontier matching the handler);
* ``accounting`` — ``released_count()`` equals the number of elements the
  handler actually returned, ``buffered_count()`` equals offered − released
  and never exceeds ``max_buffered_count()``;
* ``input order`` — offered elements arrive in nondecreasing
  ``(arrival_time, seq)`` order.

**Operator checkers** (:class:`SanitizingOperator`)

* ``retirement ordering`` — a window result is emitted at most once per
  revision, only after the frontier passed the window end (unless flushed),
  with nondecreasing emit times and a latency consistent with
  ``emit_time − window.end``.

Every violation raises :class:`~repro.errors.SanitizerError` at the call
site.  The sanitizer is enabled per run with
``run_pipeline(..., sanitize=True)``; when off, nothing is wrapped and the
overhead is zero.  Checker overhead when on is measured in
``benchmarks/test_micro_components.py`` (see ``docs/ANALYSIS.md``).

The accounting checkers assume the handler releases only elements it was
offered (true for every handler in this package).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Iterable

from repro.engine.handlers import Checkpoints, DisorderHandler
from repro.engine.operator import Operator, WindowResult
from repro.errors import SanitizerError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement

#: Tolerance of the latency-consistency check: latencies are computed as
#: ``emit_time - window.end`` by every operator, so only representation
#: noise is allowed.
_LATENCY_TOL = 1e-9


#: ``offer`` audits the accounting counters on its first call and then on
#: every N-th (``offer_many`` and ``flush`` always audit).  Counter drift is
#: permanent, so a periodic audit still catches every accounting bug — at
#: most N calls late — while keeping three proxied count calls off the
#: per-element hot path.
ACCOUNTING_PERIOD = 32


class SanitizingHandler(DisorderHandler):
    """Checked proxy around a :class:`DisorderHandler`.

    All protocol methods forward to the wrapped handler; unknown attributes
    (``k``, ``adaptations``, ...) fall through, so instrumented code that
    introspects concrete handlers keeps working.
    """

    def __init__(self, inner: DisorderHandler) -> None:
        self.inner = inner
        self.name = getattr(inner, "name", "handler")
        self.takes_feedback = inner.takes_feedback
        # Countdown to the next accounting audit; starts at 1 so the very
        # first offer is audited (miswired handlers surface immediately).
        self._audit_in = 1
        self._offered_total = 0
        self._returned_total = 0
        self._last_frontier = inner.frontier
        self._inner_offer = inner.offer
        # Arrival order is tracked as two scalars instead of a
        # ``(arrival_time, seq)`` tuple so the hot path allocates nothing.
        self._last_arrival_time = float("-inf")
        self._last_arrival_seq = -1
        # How many offered elements are not yet released, per sort key
        # ``(event_time, seq)``: a key outlives a ``loads_state`` round trip,
        # which hands the handler copies of the elements it buffered, and a
        # count keeps field-equal duplicates apart.  The heap allows an
        # O(log n) "smallest buffered event time" probe with lazy deletion
        # of already-released keys.
        self._inflight: dict[tuple[float, int], int] = {}
        self._inflight_heap: list[tuple[float, int]] = []
        self._tracks_released = (
            type(inner).released_count is not DisorderHandler.released_count
        )
        self._tracks_buffered = (
            type(inner).buffered_count is not DisorderHandler.buffered_count
        )

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to the proxy and the wrapped handler."""
        self.tracer = tracer
        self.inner.set_tracer(tracer)

    # ------------------------------------------------------------------ #
    # checks

    def _fail(self, check: str, message: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "sanitizer.finding", self._last_arrival_time, check=check, message=message
            )
        raise SanitizerError(
            f"StreamSan[{check}] on {self.inner.describe()}: {message}"
        )

    def _note_offered(self, element: StreamElement) -> None:
        arrival = element.arrival_time
        if arrival is not None:
            self._check_arrival_order(arrival, element.seq)
        self._offered_total += 1
        marker = (element.event_time, element.seq)
        self._inflight[marker] = self._inflight.get(marker, 0) + 1
        heappush(self._inflight_heap, marker)

    def _check_arrival_order(self, arrival: float, seq: int) -> None:
        last_arrival = self._last_arrival_time
        if arrival > last_arrival:
            self._last_arrival_time = arrival
            self._last_arrival_seq = seq
        elif arrival < last_arrival:
            self._fail(
                "input-order",
                f"element offered out of arrival order: ({arrival}, {seq}) "
                f"after ({last_arrival}, {self._last_arrival_seq})",
            )
        else:
            if seq < self._last_arrival_seq:
                self._fail(
                    "input-order",
                    f"element offered out of arrival order: ({arrival}, "
                    f"{seq}) after ({last_arrival}, {self._last_arrival_seq})",
                )
            self._last_arrival_seq = seq

    def _note_released(self, released: Iterable[StreamElement]) -> None:
        inflight = self._inflight
        for element in released:
            self._returned_total += 1
            key = (element.event_time, element.seq)
            held = inflight.pop(key, 0)
            if held > 1:
                inflight[key] = held - 1

    def _check_frontier_step(self, where: str) -> float:
        frontier = self.inner.frontier
        if isinstance(frontier, float) and math.isnan(frontier):
            self._fail("frontier", f"frontier is NaN after {where}")
        if frontier < self._last_frontier:
            self._fail(
                "frontier",
                f"frontier moved backwards after {where}: "
                f"{self._last_frontier} -> {frontier}",
            )
        self._last_frontier = max(self._last_frontier, frontier)
        return frontier

    def _check_release_invariant(self, frontier: float, where: str) -> None:
        heap = self._inflight_heap
        inflight = self._inflight
        while heap and heap[0] not in inflight:
            heappop(heap)
        if heap and heap[0][0] <= frontier:
            self._fail(
                "release",
                f"element with event_time={heap[0][0]:g} still buffered at "
                f"or below the frontier {frontier:g} after {where} — it "
                "must be released the moment the frontier passes it",
            )

    def _check_accounting(self, where: str) -> None:
        if self._tracks_released:
            reported = self.inner.released_count()
            # Both sides are integer element counters, not float folds.
            if reported != self._returned_total:  # repro-lint: disable=R18
                self._fail(
                    "accounting",
                    f"released_count()={reported} but {self._returned_total} "
                    f"element(s) were actually returned (after {where})",
                )
        buffered = self.inner.buffered_count()
        if self._tracks_buffered:
            held = self._offered_total - self._returned_total
            if buffered != held:
                self._fail(
                    "accounting",
                    f"buffered_count()={buffered} but offered - released = "
                    f"{held} (after {where})",
                )
        if buffered > self.inner.max_buffered_count():
            self._fail(
                "accounting",
                f"buffered_count()={buffered} exceeds max_buffered_count()="
                f"{self.inner.max_buffered_count()} (after {where})",
            )

    def _check_checkpoints(
        self,
        elements: list[StreamElement],
        released: list[StreamElement],
        checkpoints: Checkpoints,
        frontier_before: float,
    ) -> None:
        if len(checkpoints) != len(elements):
            self._fail(
                "checkpoints",
                f"offer_many returned {len(checkpoints)} checkpoint(s) for "
                f"{len(elements)} element(s)",
            )
        previous_offset = 0
        previous_frontier = frontier_before
        for position, (offset, frontier) in enumerate(checkpoints):
            if offset < previous_offset or offset > len(released):
                self._fail(
                    "checkpoints",
                    f"checkpoint {position}: end offset {offset} out of "
                    f"order (previous {previous_offset}, released "
                    f"{len(released)})",
                )
            if frontier < previous_frontier:
                self._fail(
                    "checkpoints",
                    f"checkpoint {position}: frontier {frontier} below "
                    f"previous {previous_frontier}",
                )
            previous_offset = offset
            previous_frontier = frontier
        if checkpoints:
            if previous_offset != len(released):
                self._fail(
                    "checkpoints",
                    f"final checkpoint covers {previous_offset} of "
                    f"{len(released)} released element(s)",
                )
            # Exact comparison is the contract (R03): the final checkpoint
            # must carry the bit-identical frontier the handler reports.
            if previous_frontier != self.inner.frontier:  # repro-lint: disable=R03
                self._fail(
                    "checkpoints",
                    f"final checkpoint frontier {previous_frontier} != "
                    f"handler frontier {self.inner.frontier}",
                )

    # ------------------------------------------------------------------ #
    # DisorderHandler protocol (checked forwarding)

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Forward one element to the wrapped handler and run the checkers.

        This is the per-element hot path: the checks are inlined (instead
        of calling the helper methods) and elements released by their own
        offer skip the in-flight bookkeeping entirely, keeping the checker
        overhead on real workloads within the documented budget.
        """
        arrival = element.arrival_time
        if arrival is not None:
            if arrival > self._last_arrival_time:
                self._last_arrival_time = arrival
                self._last_arrival_seq = element.seq
            else:
                self._check_arrival_order(arrival, element.seq)
        released = self._inner_offer(element)
        n_released = len(released)
        self._offered_total += 1
        self._returned_total += n_released
        inflight = self._inflight
        if not (n_released == 1 and released[0] is element):
            marker = (element.event_time, element.seq)
            passed_through = False
            for item in released:
                key = (item.event_time, item.seq)
                if key == marker and not passed_through:
                    passed_through = True
                else:
                    held = inflight.pop(key, 0)
                    if held > 1:
                        inflight[key] = held - 1
            if not passed_through:
                inflight[marker] = inflight.get(marker, 0) + 1
                heappush(self._inflight_heap, marker)
        frontier = self.inner.frontier
        last = self._last_frontier
        if frontier > last:
            self._last_frontier = frontier
        # Exact comparisons are deliberate (R03): a stalled frontier repeats
        # the identical float, so anything not >, == or NaN moved backwards.
        elif frontier != last:  # repro-lint: disable=R03
            if frontier != frontier:  # repro-lint: disable=R03 - NaN probe
                self._fail("frontier", "frontier is NaN after offer")
            self._fail(
                "frontier",
                f"frontier moved backwards after offer: {last} -> {frontier}",
            )
        heap = self._inflight_heap
        # Entries above the frontier are fine whether stale or live, so
        # lazy deletion only has to run once the top dips below it.
        if heap and heap[0][0] <= frontier:
            while heap and heap[0] not in inflight:
                heappop(heap)
            if heap and heap[0][0] <= frontier:
                self._fail(
                    "release",
                    f"element with event_time={heap[0][0]:g} still "
                    f"buffered at or below the frontier {frontier:g} "
                    "after offer — it must be released the moment the "
                    "frontier passes it",
                )
        countdown = self._audit_in - 1
        if countdown > 0:
            self._audit_in = countdown
        else:
            self._audit_in = ACCOUNTING_PERIOD
            self._check_accounting("offer")
        return released

    def offer_many(
        self, elements: list[StreamElement]
    ) -> tuple[list[StreamElement], Checkpoints]:
        """Forward a batch to the wrapped handler and run the checkers."""
        frontier_before = self._last_frontier
        for element in elements:
            self._note_offered(element)
        released, checkpoints = self.inner.offer_many(elements)
        self._note_released(released)
        frontier = self._check_frontier_step("offer_many")
        self._check_checkpoints(elements, released, checkpoints, frontier_before)
        self._check_release_invariant(frontier, "offer_many")
        self._check_accounting("offer_many")
        return released, checkpoints

    def flush(self) -> list[StreamElement]:
        """Flush the wrapped handler; assert every element was released."""
        released = self.inner.flush()
        self._note_released(released)
        self._check_frontier_step("flush")
        self._check_accounting("flush")
        if self._inflight:
            self._fail(
                "release",
                f"{sum(self._inflight.values())} offered element(s) never "
                f"released (earliest event_time={min(self._inflight)[0]:g}) "
                "after flush",
            )
        return released

    @property
    def frontier(self) -> float:
        """Checked view of the wrapped handler's frontier.

        Served from the value captured at the last checked protocol call —
        handlers only move their frontier inside ``offer``/``offer_many``/
        ``flush``, and the frontier checker asserts the captured value never
        falls behind the handler's, so this is identical to
        ``inner.frontier`` while sparing instrumented per-element readers a
        second proxy hop.
        """
        return self._last_frontier

    @property
    def current_slack(self) -> float:
        """Forwarded to the wrapped handler."""
        return self.inner.current_slack

    def released_count(self) -> int:
        """Forwarded to the wrapped handler."""
        return self.inner.released_count()

    def buffered_count(self) -> int:
        """Forwarded to the wrapped handler."""
        return self.inner.buffered_count()

    def max_buffered_count(self) -> int:
        """Forwarded to the wrapped handler."""
        return self.inner.max_buffered_count()

    def observe_error(self, error: float) -> None:
        """Forwarded to the wrapped handler."""
        self.inner.observe_error(error)

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """Forwarded to the wrapped handler."""
        return self.inner.next_adaptation_offset(elements, start, stop)

    def describe(self) -> str:
        """Label the wrapped handler as sanitized."""
        return f"streamsan({self.inner.describe()})"

    def __getattr__(self, name: str) -> Any:
        """Fall through to the wrapped handler for concrete-class attributes.

        Dunder and private names are not forwarded: copy/pickle machinery
        probes them on half-constructed proxies, which must fail with a
        plain ``AttributeError`` instead of recursing into the proxy.
        """
        if name.startswith("_"):
            raise AttributeError(name)
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


class SanitizingOperator(Operator):
    """Checked proxy around an :class:`Operator`.

    Wrapping also swaps the operator's ``handler`` attribute (when present)
    for a :class:`SanitizingHandler`, so the operator's own calls into the
    handler are checked too.  ``handler``/``stats`` are re-exported for the
    pipeline's instrumentation; any other attribute falls through.
    """

    #: Attached tracer; a class attribute so reads never hit ``__getattr__``.
    tracer: Tracer = NULL_TRACER

    def __init__(self, inner: Operator) -> None:
        self.inner = inner
        self._inner_process = inner.process
        self._sanitized_handler: SanitizingHandler | None = None
        inner_handler = getattr(inner, "handler", None)
        if inner_handler is not None:
            if isinstance(inner_handler, SanitizingHandler):
                self._sanitized_handler = inner_handler
            else:
                self._sanitized_handler = SanitizingHandler(inner_handler)
                inner.handler = self._sanitized_handler  # type: ignore[attr-defined]
        self._emitted: set[tuple[object, float, float, int]] = set()
        self._last_emit_time = float("-inf")

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to the proxy and the wrapped operator.

        The wrapped operator forwards to its handler attribute — which the
        constructor swapped for the :class:`SanitizingHandler`, so handler
        findings and engine trace records all land in the same trace.
        """
        self.tracer = tracer
        set_inner_tracer = getattr(self.inner, "set_tracer", None)
        if set_inner_tracer is not None:
            set_inner_tracer(tracer)

    # ------------------------------------------------------------------ #
    # checks

    def _fail(self, check: str, message: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "sanitizer.finding", self._last_emit_time, check=check, message=message
            )
        raise SanitizerError(f"StreamSan[{check}]: {message}")

    def _check_results(
        self, results: list[WindowResult], flushing: bool
    ) -> None:
        handler = self._sanitized_handler
        frontier = handler.frontier if handler is not None else None
        for result in results:
            window = getattr(result, "window", None)
            if window is None:
                continue  # join/pattern results have their own lifecycle
            slot = (result.key, window.start, window.end, result.revision)
            if slot in self._emitted:
                self._fail(
                    "retirement",
                    f"window {window} (key={result.key!r}, revision="
                    f"{result.revision}) emitted twice",
                )
            self._emitted.add(slot)
            if not result.flushed and frontier is not None:
                if window.end > frontier:
                    self._fail(
                        "retirement",
                        f"window {window} emitted before the frontier "
                        f"({frontier:g}) passed its end",
                    )
            if result.emit_time < self._last_emit_time:
                self._fail(
                    "retirement",
                    f"emit_time moved backwards: {self._last_emit_time:g} "
                    f"-> {result.emit_time:g}",
                )
            self._last_emit_time = result.emit_time
            if result.revision == 0:
                expected = result.emit_time - window.end
                if not math.isclose(
                    result.latency, expected, rel_tol=1e-9, abs_tol=_LATENCY_TOL
                ):
                    self._fail(
                        "retirement",
                        f"latency {result.latency!r} inconsistent with "
                        f"emit_time - window.end = {expected!r}",
                    )

    # ------------------------------------------------------------------ #
    # Operator protocol (checked forwarding)

    def process(self, element: StreamElement) -> list[WindowResult]:
        """Forward one element to the wrapped operator and check emissions."""
        results = self._inner_process(element)
        if results:
            self._check_results(results, flushing=False)
        return results

    def process_many(self, elements: list[StreamElement]) -> list[WindowResult]:
        """Forward a chunk to the wrapped operator and check emissions."""
        results = self.inner.process_many(elements)
        if results:
            self._check_results(results, flushing=False)
        return results

    def finish(self) -> list[WindowResult]:
        """Finish the wrapped operator and check the flushed emissions."""
        results = self.inner.finish()
        self._check_results(results, flushing=True)
        return results

    @property
    def handler(self) -> DisorderHandler | None:
        """The sanitized handler (pipeline instrumentation reads this)."""
        return self._sanitized_handler

    @property
    def stats(self) -> Any:
        """The wrapped operator's stats object, when it keeps one."""
        return getattr(self.inner, "stats", None)

    def __getattr__(self, name: str) -> Any:
        """Fall through to the wrapped operator (public attributes only)."""
        if name.startswith("_"):
            raise AttributeError(name)
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


def sanitize_operator(operator: Operator) -> Operator:
    """Put ``operator`` (and its handler) under the StreamSan checkers.

    What ``run_pipeline(sanitize=True)`` and each sanitized shard runner
    apply, and the entry point for driving an operator by hand.  An
    operator that sanitizes its own parts (it has ``configure_sanitizer``,
    like the sharded coordinator) is told to and returned unwrapped; its
    shards run under the same checkers.  Any other operator comes back
    wrapped in a :class:`SanitizingOperator`.
    """
    configure = getattr(operator, "configure_sanitizer", None)
    if configure is not None:
        configure()
        return operator
    return SanitizingOperator(operator)
