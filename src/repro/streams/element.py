"""Stream data model: timestamped elements.

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

from dataclasses import dataclass
from math import inf
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, StreamOrderError


@dataclass(frozen=True, slots=True, init=False)
class StreamElement:
    """One timestamped record of a data stream (numpy scalar keys, not tuples of them, become Python scalars).

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

    def __init__(
        self, event_time: float, value: Any, key: Any = None,
        arrival_time: float | None = None, seq: int = -1,
    ) -> None:
        # A numpy floating payload (float32 and float16 included) becomes a
        # Python float, so every aggregate folds it in double precision
        # under numpy's promotion rules too.  Ints, bools and non-numeric
        # payloads stay as they are: large integer IDs stay exact.
        if type(value) is not float and isinstance(value, np.floating):
            value = float(value)
        # A numpy scalar key becomes its Python scalar: ``np.int64(1) ==
        # Decimal(1)`` holds but ``Decimal(1) == np.int64(1)`` raises, so a
        # dict holding both would work or fail by which it compared first.
        # Tuples keep what they hold.
        if type(key) is not str and isinstance(key, (np.number, np.bool_)):
            key = key.item()
        # Both checks are negated comparisons so that NaN, for which every
        # comparison is false, is rejected with the out-of-range values.
        if not (0 <= event_time < inf):
            raise ConfigurationError(
                f"event_time must be finite and non-negative, got {event_time}"
            )
        # The one sanctioned cross-axis comparison: both axes share the
        # simulation epoch and causality demands arrival >= event time —
        # this check is what makes .delay non-negative by construction.
        if arrival_time is not None and not (arrival_time >= event_time):
            raise ConfigurationError(
                "arrival_time must be a number not preceding event_time "
                f"(got {arrival_time}, event_time {event_time})"
            )
        _set_event_time(self, event_time)
        _set_value(self, value)
        _set_key(self, key)
        _set_arrival_time(self, arrival_time)
        _set_seq(self, seq)

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
        return StreamElement(
            self.event_time, self.value, self.key, arrival_time,
            self.seq if seq is None else seq,
        )

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
        whose ``seq`` is not unique, which has no deterministic order.  The
        sorting buffer asks the same way when an insert meets such a tie.
        """
        raise StreamOrderError(
            f"cannot order {self!r} and {other!r}: they tie on timestamp and "
            "seq; every element of a stream needs a unique seq (generate_stream, "
            "inject_disorder and merge_streams assign one, read_trace restores it)"
        )


# Slot setters, bound after the decorator ran (slots=True builds the class
# anew): one C call per field past the frozen __setattr__, per element.
_set_event_time, _set_value, _set_key, _set_arrival_time, _set_seq = (
    vars(StreamElement)[name].__set__ for name in StreamElement.__slots__
)


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
