"""Operator base types and the results they emit."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.engine.windows import Window
from repro.streams.element import StreamElement
from repro.streams.timebase import ArrivalTimeStamp, DurationS


@dataclass(frozen=True, slots=True, init=False)
class WindowResult:
    """One finalized window aggregate.

    Attributes:
        key: Partitioning key (``None`` for unkeyed queries).
        window: The event-time window the result covers.
        value: Aggregate value at emission time.
        count: Number of elements folded in before emission.
        emit_time: Arrival-time instant the result was produced.
        latency: ``emit_time - window.end`` — how long the answer for this
            window was delayed past the moment it became askable.  This is
            the latency the quality/latency tradeoff is about.
        revision: 0 for the first emission of a window; speculative
            operators emit corrected results with increasing revisions.
        flushed: True when the window was force-closed at stream end
            rather than by the frontier.  Flushed windows carry no
            meaningful latency (their emit time is the last arrival of the
            whole run) and are excluded from latency summaries.
    """

    key: object
    window: Window
    value: float
    count: int
    emit_time: float
    latency: float
    revision: int = 0
    flushed: bool = False

    def __init__(
        self, key: object, window: Window, value: float, count: int,
        emit_time: ArrivalTimeStamp, latency: DurationS,
        revision: int = 0, flushed: bool = False,
    ) -> None:
        # The generated __init__ of a frozen dataclass goes through eight
        # object.__setattr__ calls, and every emitted window pays for one.
        _set_key(self, key)
        _set_window(self, window)
        _set_value(self, value)
        _set_count(self, count)
        _set_emit_time(self, emit_time)
        _set_latency(self, latency)
        _set_revision(self, revision)
        _set_flushed(self, flushed)


# The slots' member descriptors write past the frozen __setattr__.  Bound
# after the decorator ran: slots=True builds the class anew.
(
    _set_key, _set_window, _set_value, _set_count,
    _set_emit_time, _set_latency, _set_revision, _set_flushed,
) = (vars(WindowResult)[name].__set__ for name in WindowResult.__slots__)


class Operator(ABC):
    """A streaming operator consuming arrival-ordered elements."""

    @abstractmethod
    def process(self, element: StreamElement) -> list[WindowResult]:
        """Consume one element; return any results finalized by it."""

    def process_many(self, elements: list[StreamElement]) -> list[WindowResult]:
        """Consume a chunk of elements; return all results they finalized.

        Must be equivalent to concatenating :meth:`process` over the chunk —
        same results, same emit times, same feedback.  The base
        implementation is exactly that loop; operators with batched hot
        paths override it.
        """
        results: list[WindowResult] = []
        extend = results.extend
        process = self.process
        for element in elements:
            extend(process(element))
        return results

    @abstractmethod
    def finish(self) -> list[WindowResult]:
        """Stream ended: flush buffers and finalize remaining windows."""
