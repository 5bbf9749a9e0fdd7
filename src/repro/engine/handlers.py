"""Disorder handlers: the pluggable policies that decide when to trust time.

A :class:`DisorderHandler` sits in front of a windowed operator.  It receives
the arrival-ordered stream and decides

* which elements to release downstream (possibly reordered), and
* how far the operator's **event-time frontier** has advanced — windows
  ending at or before the frontier may be finalized.

The frontier is the single knob that trades latency for quality: a frontier
that hugs the newest event time closes windows immediately (low latency,
wrong results under disorder); a frontier lagging by the maximum delay closes
windows only when they are certainly complete (exact results, worst-case
latency).

This module provides the baselines and :class:`SlackHandler`, the one
K-slack release path; the paper's adaptive, quality-driven K rule lives
in :mod:`repro.core.aqk`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from operator import attrgetter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement
from repro.streams.timebase import (
    DurationS,
    EventTimeFrontier,
    EventTimeStamp,
    MonotoneFrontier,
)
from repro.engine.buffer import SortingBuffer

#: Below this batch size the bulk release machinery costs more than the
#: scalar loop it replaces; :meth:`SlackHandler.offer_many` falls back to
#: the generic per-element path.
MIN_BULK_BATCH = 8

#: The buffer's release order (its heap key).
_BUFFER_ORDER = attrgetter("event_time", "seq")

#: ``offer_many`` checkpoints: one ``(released_end_offset, frontier)`` pair
#: per offered element, in offer order.
Checkpoints = list[tuple[int, float]]


def bulk_release(
    buffer: SortingBuffer,
    elements: list[StreamElement],
    event_times: "np.ndarray",
    frontiers: "np.ndarray",
) -> tuple[list[StreamElement], list[int]]:
    """Push a batch and release in bulk, reconstructing per-element steps.

    ``event_times[i]`` is the event time of ``elements[i]`` and
    ``frontiers[i]`` the (monotone) frontier in effect after offering it.
    Pushes the whole batch, releases everything at or below the final
    frontier in one buffer call, then assigns each released element the
    exact scalar release step: the first i with ``frontiers[i] >=
    event_time``, but never before the element's own offer position.  Returns
    the released elements reordered into scalar release order plus, per
    offered element, the end offset of its release slice.
    """
    n = len(elements)
    released = buffer.push_release(elements, float(frontiers[-1]))
    if not released:
        return [], [0] * n
    released_times = np.fromiter(
        (element.event_time for element in released), dtype=float, count=len(released)
    )
    steps = np.searchsorted(frontiers, released_times, side="left")
    # Only an element offered at or below its own step's frontier has an
    # earlier step covering it; it leaves with its own offer.  ``released``
    # is in (event_time, seq) order: it sits at the first slot of its
    # timestamp or, on a tie, where its seq puts it (field-equal copies tie
    # on both and sit side by side).
    late = np.flatnonzero(event_times <= frontiers)
    slots = np.searchsorted(released_times, event_times[late], side="left").tolist()
    for own, slot in zip(late.tolist(), slots):
        element = elements[own]
        if released[slot] is not element:
            slot = bisect_left(
                released, (element.event_time, element.seq), slot, key=_BUFFER_ORDER
            )
            while released[slot] is not element:
                slot += 1
        steps[slot] = own
    # Stable sort keeps (event_time, seq) order within a step — exactly the
    # order the scalar heap pops would have produced.
    order = np.argsort(steps, kind="stable").tolist()
    released_ordered = [released[j] for j in order]
    offsets = np.cumsum(np.bincount(steps, minlength=n)).tolist()
    return released_ordered, offsets


class DisorderHandler(ABC):
    """Policy controlling element release and frontier advancement."""

    name = "handler"

    #: Attached tracer (see :mod:`repro.obs.trace`); the shared null tracer
    #: keeps instrumented paths at one attribute check when tracing is off.
    tracer: Tracer = NULL_TRACER

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this handler (and its sorting buffer).

        Handlers that own a :class:`~repro.engine.buffer.SortingBuffer`
        store it as ``_buffer``; the buffer inherits the tracer so its
        push/release records land in the same trace.
        """
        self.tracer = tracer
        buffer = getattr(self, "_buffer", None)
        if buffer is not None:
            buffer.tracer = tracer

    @abstractmethod
    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Accept one arriving element; return elements released downstream."""

    def offer_many(
        self, elements: list[StreamElement]
    ) -> tuple[list[StreamElement], Checkpoints]:
        """Accept a batch of arriving elements at once.

        Returns ``(released, checkpoints)`` where ``checkpoints[i]`` is the
        pair ``(end_offset, frontier)`` after offering ``elements[i]``:
        ``released[start:end_offset]`` (with ``start`` the previous end
        offset) are the elements element i's offer released, and ``frontier``
        is the handler frontier at that point.  The concatenation of the
        slices equals the scalar release sequence exactly — batched callers
        replay closes/retirement at each checkpoint to stay bit-identical to
        the scalar path.

        The base implementation loops :meth:`offer`; subclasses override it
        with amortized bulk paths.
        """
        released: list[StreamElement] = []
        checkpoints: Checkpoints = []
        extend = released.extend
        append = checkpoints.append
        for element in elements:
            extend(self.offer(element))
            append((len(released), self.frontier))
        return released, checkpoints

    @abstractmethod
    def flush(self) -> list[StreamElement]:
        """Stream ended: release everything still buffered."""

    def released_count(self) -> int:
        """Cumulative number of elements released downstream so far."""
        return 0

    @property
    @abstractmethod
    def frontier(self) -> EventTimeStamp:
        """Monotone event-time frontier; ``-inf`` before any element.

        **Contract** (relied on by every downstream window lifecycle):
        across any sequence of :meth:`offer` / :meth:`offer_many` /
        :meth:`flush` calls the frontier NEVER decreases — a window closed
        at frontier T must stay closed.  ``flush`` may jump it to ``+inf``.
        Implementations should store their frontier in a
        :class:`~repro.streams.timebase.MonotoneFrontier`, whose
        ``advance`` clamps regressions structurally; the StreamSan runtime
        checkers (:mod:`repro.analysis.sanitizer`) additionally enforce the
        contract on every call when a pipeline runs with ``sanitize=True``.
        """

    @property
    def current_slack(self) -> DurationS:
        """Slack (buffering lag, seconds) currently in effect; 0 if none."""
        return 0.0

    def buffered_count(self) -> int:
        """Number of elements currently held back."""
        return 0

    def max_buffered_count(self) -> int:
        """High-water mark of held-back elements (memory proxy)."""
        return 0

    def observe_error(self, error: float) -> None:
        """Feedback hook: observed relative error of a retired window.

        Baselines ignore feedback; the adaptive handler consumes it.
        """

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """First index in ``(start, stop)`` at which a *feedback-coupled*
        adaptation would fire while offering ``elements[start:stop]``.

        ``WindowAggregateOperator.process_many`` cuts its input at this
        index so every error-fed adaptation observes exactly the
        ``observe_error`` state a scalar run would (retirements for
        earlier elements are replayed before the boundary element is
        offered).  Handlers without error-coupled adaptation return
        ``None``; the batched path then never splits.
        """
        return None

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return self.name


class NoBufferHandler(DisorderHandler):
    """Zero-latency baseline: release immediately, frontier = newest event.

    Every out-of-order element whose windows already closed is dropped by the
    operator downstream — this is the quality floor of the evaluation.
    """

    name = "no-buffer"

    def __init__(self) -> None:
        self._frontier = EventTimeFrontier()

    def offer(self, element: StreamElement) -> list[StreamElement]:
        self._frontier.observe(element.event_time)
        return [element]

    def flush(self) -> list[StreamElement]:
        return []

    @property
    def frontier(self) -> EventTimeStamp:
        return self._frontier.value

    def released_count(self) -> int:
        return self._frontier.count


class SlackHandler(DisorderHandler):
    """K-slack buffering: the one release path; subclasses only decide K.

    Elements are buffered and released in event-time order once the running
    maximum event time (the "clock") exceeds their timestamp by at least the
    slack ``K``; the frontier is ``clock - K``, clamped so it never moves
    back while ``K`` grows.  Elements delayed by more than ``K`` are still
    forwarded, but arrive past the frontier and are counted late downstream.

    The class owns the clock, the sorting buffer, the frontier and the
    scalar and bulk release; a buffer-size policy is a subclass that sets
    ``k`` and implements :meth:`slack_for` (observe one arrival, return
    the ``K`` its release runs under) and its batched twin
    :meth:`slacks_for`.  A driver that keeps its own buffer and clock (the
    shared stores) calls :meth:`slack_for` alone and applies the returned
    slack to its own clock.
    """

    #: Slack currently in effect; subclasses set it before the first offer.
    k: DurationS

    def __init__(self) -> None:
        self._clock = EventTimeFrontier()
        self._buffer = SortingBuffer()
        self._front = MonotoneFrontier()

    @abstractmethod
    def slack_for(self, element: StreamElement) -> DurationS:
        """Observe one arriving element; return the slack it releases under."""

    @abstractmethod
    def slacks_for(
        self, elements: list[StreamElement], event_times: "np.ndarray"
    ) -> "DurationS | np.ndarray":
        """Batched :meth:`slack_for`: observe ``elements`` in order.

        ``event_times`` holds their event times.  Returns the slack each
        element's release runs under — one value when it is the same for
        all of them, else one per element.
        """

    def offer(self, element: StreamElement) -> list[StreamElement]:
        clock = self._clock.observe(element.event_time)
        self._buffer.push(element)
        return self._buffer.release_until(
            self._front.advance(clock - self.slack_for(element))
        )

    def offer_many(
        self, elements: list[StreamElement]
    ) -> tuple[list[StreamElement], Checkpoints]:
        """One bulk release per chunk, whatever ``K`` did inside it."""
        n = len(elements)
        if n < MIN_BULK_BATCH:
            return super().offer_many(elements)
        event_times = np.fromiter(
            (element.event_time for element in elements), dtype=float, count=n
        )
        clocks = np.maximum.accumulate(event_times)
        np.maximum(clocks, self._clock.value, out=clocks)
        # The running maximum is MonotoneFrontier's clamp, element by element.
        frontiers = np.maximum.accumulate(
            clocks - self.slacks_for(elements, event_times)
        )
        np.maximum(frontiers, self._front.value, out=frontiers)
        self._clock.observe_many(float(clocks[-1]), n)
        self._front.advance(float(frontiers[-1]))
        released, offsets = bulk_release(self._buffer, elements, event_times, frontiers)
        return released, list(zip(offsets, frontiers.tolist()))

    def flush(self) -> list[StreamElement]:
        return self._buffer.drain()

    @property
    def frontier(self) -> EventTimeStamp:
        return self._front.value

    @property
    def current_slack(self) -> DurationS:
        return self.k

    def buffered_count(self) -> int:
        return len(self._buffer)

    def max_buffered_count(self) -> int:
        return self._buffer.max_size

    def released_count(self) -> int:
        return self._buffer.released_total


class KSlackHandler(SlackHandler):
    """Classic fixed K-slack buffering: ``K`` is configured, never adapted."""

    name = "k-slack"

    def __init__(self, k: DurationS) -> None:
        if k < 0:
            raise ConfigurationError(f"slack K must be non-negative, got {k}")
        super().__init__()
        self.k = k

    def slack_for(self, element: StreamElement) -> DurationS:
        return self.k

    def slacks_for(
        self, elements: list[StreamElement], event_times: "np.ndarray"
    ) -> DurationS:
        return self.k

    def describe(self) -> str:
        return f"k-slack(K={self.k:g}s)"


class MPKSlackHandler(SlackHandler):
    """MP-K-slack: conservative adaptive baseline tracking the max delay.

    ``K`` grows to the largest element delay observed so far (optionally
    padded by ``safety_factor``), so results become exact once the true
    worst case has been seen — at the price of worst-case latency forever
    after.  This is the "conservative" comparison point of experiment E3.
    """

    name = "mp-k-slack"

    def __init__(self, initial_k: DurationS = 0.0, safety_factor: float = 1.0) -> None:
        if initial_k < 0:
            raise ConfigurationError(f"initial K must be non-negative, got {initial_k}")
        if safety_factor < 1.0:
            raise ConfigurationError(
                f"safety_factor must be >= 1, got {safety_factor}"
            )
        super().__init__()
        self.k = initial_k
        self.safety_factor = safety_factor

    def slack_for(self, element: StreamElement) -> DurationS:
        if element.arrival_time is not None:
            observed = element.delay * self.safety_factor
            if observed > self.k:
                self.k = observed
        return self.k

    def slacks_for(
        self, elements: list[StreamElement], event_times: "np.ndarray"
    ) -> "np.ndarray":
        # Elements without an arrival time leave K unchanged; a negative
        # placeholder can never raise K (K >= 0 always).
        scaled_delays = np.fromiter(
            (
                (element.arrival_time - element.event_time) * self.safety_factor
                if element.arrival_time is not None
                else -1.0
                for element in elements
            ),
            dtype=float,
            count=len(elements),
        )
        ks = np.maximum.accumulate(scaled_delays)
        np.maximum(ks, self.k, out=ks)
        self.k = float(ks[-1])
        return ks

    def describe(self) -> str:
        return f"mp-k-slack(K={self.k:g}s)"
