"""Operator base types and the results they emit."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.engine.windows import Window
from repro.streams.element import StreamElement


@dataclass(frozen=True, slots=True)
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
