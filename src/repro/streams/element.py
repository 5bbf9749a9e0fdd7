"""Stream data model: timestamped elements and watermarks.

Every record flowing through the engine is a :class:`StreamElement`.  It
carries two timestamps:

* ``event_time`` — when the event happened at the source (seconds, on a
  simulated timeline starting at 0).
* ``arrival_time`` — when the event reached the query processor.  Out-of-order
  streams are modelled by assigning each element an arrival time of
  ``event_time + delay`` with delays drawn from a delay model, then feeding
  elements to operators in arrival order.

Elements are immutable; derived elements are produced with ``with_arrival``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Any

from repro.errors import ConfigurationError, StreamOrderError


@dataclass(frozen=True, slots=True)
class StreamElement:
    """One timestamped record of a data stream.

    Attributes:
        event_time: Source timestamp in seconds (event-time domain).
        value: The payload, typically a number for aggregation queries.
        key: Optional partitioning key (sensor id, stock symbol, ...).
        arrival_time: Timestamp at which the element reached the processor,
            or ``None`` for an element that has not been through disorder
            injection yet.
        seq: Source sequence number, used as a deterministic tie-breaker
            when sorting elements with equal timestamps.
    """

    event_time: float
    value: Any
    key: Any = None
    arrival_time: float | None = None
    seq: int = -1

    def __post_init__(self) -> None:
        # Both checks are negated comparisons so that NaN, for which every
        # comparison is false, is rejected with the out-of-range values.
        if not (0 <= self.event_time < inf):
            raise ConfigurationError(
                f"event_time must be finite and non-negative, got {self.event_time}"
            )
        # The one sanctioned cross-axis comparison: both axes share the
        # simulation epoch and causality demands arrival >= event time —
        # this check is what makes .delay non-negative by construction.
        if self.arrival_time is not None and not (
            self.arrival_time >= self.event_time  # repro-lint: disable=R06
        ):
            raise ConfigurationError(
                "arrival_time must be a number not preceding event_time "
                f"(got {self.arrival_time}, event_time {self.event_time})"
            )

    @property
    def delay(self) -> float:
        """Network/processing delay experienced by this element (seconds).

        Raises:
            ConfigurationError: if the element has no arrival time yet.
        """
        if self.arrival_time is None:
            raise ConfigurationError("element has no arrival_time assigned")
        return self.arrival_time - self.event_time

    def with_arrival(self, arrival_time: float, seq: int | None = None) -> "StreamElement":
        """Return a copy of this element with an arrival timestamp set."""
        if seq is None:
            return replace(self, arrival_time=arrival_time)
        return replace(self, arrival_time=arrival_time, seq=seq)

    def arrival_sort_key(self) -> tuple[float, int]:
        """Sort key for arrival order with deterministic tie-breaking."""
        if self.arrival_time is None:
            raise ConfigurationError("element has no arrival_time assigned")
        return (self.arrival_time, self.seq)

    def event_sort_key(self) -> tuple[float, int]:
        """Sort key for event-time order with deterministic tie-breaking."""
        return (self.event_time, self.seq)

    def __lt__(self, other: "StreamElement") -> bool:
        """Elements have no order of their own: always raises.

        Sorting and heaps order ``(timestamp, seq, element)`` tuples, which
        ask the elements only when two *distinct* ones tie on the pair
        before them (field-equal duplicates compare equal first) — a stream
        whose ``seq`` is not unique, which has no deterministic order.
        """
        raise StreamOrderError(
            f"cannot order {self!r} and {other!r}: they tie on timestamp and "
            "seq; every element of a stream needs a unique seq (generate_stream, "
            "inject_disorder and merge_streams assign one, read_trace restores it)"
        )


@dataclass(frozen=True, slots=True)
class Watermark:
    """An assertion that no element with ``event_time < timestamp`` follows.

    Watermark-based disorder handling injects these into the stream; an
    operator receiving a watermark may finalize every window that ends at or
    before the watermark's timestamp.
    """

    timestamp: float


def ensure_arrival_order(elements: list[StreamElement]) -> list[StreamElement]:
    """Validate that ``elements`` are sorted by arrival time.

    Returns the input list unchanged when the order holds.

    Raises:
        StreamOrderError: when two consecutive elements are out of arrival
            order, which indicates a bug in disorder injection or trace IO.
    """
    previous = None
    for element in elements:
        current = element.arrival_sort_key()
        if previous is not None and current < previous:
            raise StreamOrderError(
                f"elements not in arrival order: {current} after {previous}"
            )
        previous = current
    return elements
