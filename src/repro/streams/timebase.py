"""Simulated clocks and time-domain helpers.

The engine runs on *simulated time*: the processing clock of a pipeline is
the arrival timestamp of the element currently being processed, which makes
every experiment deterministic and independent of host speed.  Wall-clock
time is measured separately (see :mod:`repro.engine.metrics`) only for
throughput/overhead experiments.
"""

from __future__ import annotations

import math
from typing import Annotated

from repro.errors import ConfigurationError


class EventTime:
    """Time-domain marker: an **event-time** instant (element timestamps,
    frontiers, watermarks, window bounds).

    Used as ``Annotated[float, EventTime]`` metadata that tells the
    reader which axis a ``float`` lives on.  Never instantiated.
    """


class ProcTime:
    """Time-domain marker: a **processing-time** instant.

    In this engine the processing clock is simulated — it is the arrival
    timestamp of the element in flight — but it is still a different axis
    from event time: comparing the two directly is the classic
    out-of-order-stream bug.
    """


class Duration:
    """Time-domain marker: a span of seconds (slack, lag, delay, latency).

    Durations may be added to or subtracted from instants; instants may be
    subtracted to produce one.  Adding two instants, or ordering a duration
    against an instant, is a bug.
    """


#: ``Annotated`` aliases for signatures.  ``mypy --strict`` sees plain
#: ``float``; the reader sees the domain.
EventTimeStamp = Annotated[float, EventTime]
ArrivalTimeStamp = Annotated[float, ProcTime]
DurationS = Annotated[float, Duration]

#: Default relative tolerance of :func:`times_equal`; matches the tolerance
#: the batched-equivalence suite uses for re-associated float folds.
TIME_EQ_RTOL = 1e-9

#: Default absolute-tolerance floor of :func:`times_equal`.  A pure relative
#: tolerance collapses to zero as timestamps approach 0.0 (stream epochs
#: start at zero here), so near-zero event times need an absolute floor to
#: absorb the same rounding that ``rtol`` absorbs at large magnitudes.
TIME_EQ_ATOL = 1e-9


def times_equal(
    a: float, b: float, rtol: float = TIME_EQ_RTOL, atol: float = TIME_EQ_ATOL
) -> bool:
    """Tolerance-aware timestamp equality.

    Float timestamps accumulate rounding the moment they pass through
    arithmetic (``frontier - lag``, window index math), so ``==``/``!=`` on
    them is a correctness trap — repro-lint rule R03 bans it.  This helper
    is the sanctioned replacement: exact matches (including infinities)
    short-circuit, everything else compares within
    ``max(atol, rtol * max(|a|, |b|))`` — relative at large magnitudes,
    floored at ``atol`` so timestamps at or near 0.0 (where a pure relative
    tolerance vanishes) still absorb rounding noise.
    """
    if a == b:  # repro-lint: disable=R03 - this IS the tolerance helper
        return True
    if math.isinf(a) or math.isinf(b):
        # Distinct infinities (or one infinite sentinel vs a finite time)
        # are never "close": rtol * inf would otherwise swallow everything.
        return False
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


class MonotoneFrontier:
    """A never-decreasing event-time frontier value.

    Every :class:`~repro.engine.handlers.DisorderHandler` promises that its
    ``frontier`` property never moves backwards; this class makes that
    promise structural instead of re-implementing ``if candidate > value``
    at every advance site.  :meth:`advance` clamps regressions (an older
    candidate leaves the frontier unchanged), so a handler that stores its
    frontier here cannot violate the contract no matter what candidate
    sequence its policy produces.
    """

    __slots__ = ("_value",)

    def __init__(self, start: EventTimeStamp = float("-inf")) -> None:
        self._value = start

    @property
    def value(self) -> EventTimeStamp:
        """Current frontier; ``-inf`` before the first advance."""
        return self._value

    def advance(self, candidate: EventTimeStamp) -> EventTimeStamp:
        """Raise the frontier to ``candidate`` if ahead; return the frontier."""
        if candidate > self._value:
            self._value = candidate
        return self._value

    def close(self) -> EventTimeStamp:
        """End of stream: jump the frontier to ``+inf`` and return it."""
        self._value = float("inf")
        return self._value


class SimulatedClock:
    """A monotone simulated clock driven by observed timestamps.

    The clock never moves backwards; feeding it an older timestamp leaves it
    unchanged.  This mirrors how stream processors derive their event-time
    frontier from the maximum timestamp seen so far.
    """

    __slots__ = ("_now",)

    def __init__(self, start: ArrivalTimeStamp = 0.0) -> None:
        if start < 0:
            raise ConfigurationError(f"clock start must be non-negative, got {start}")
        self._now = start

    @property
    def now(self) -> ArrivalTimeStamp:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: ArrivalTimeStamp) -> ArrivalTimeStamp:
        """Advance the clock to ``timestamp`` if it is ahead; return now."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def advance_by(self, delta: DurationS) -> ArrivalTimeStamp:
        """Advance the clock by a non-negative delta; return now."""
        if delta < 0:
            raise ConfigurationError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now


class EventTimeFrontier:
    """Tracks the maximum event time observed on a stream.

    ``frontier - K`` is the release threshold of a K-slack buffer; the
    frontier itself is the most aggressive (zero-slack) watermark available
    without future knowledge.
    """

    __slots__ = ("_max_event_time", "_count")

    def __init__(self) -> None:
        self._max_event_time = float("-inf")
        self._count = 0

    @property
    def value(self) -> EventTimeStamp:
        """Maximum event time seen, or ``-inf`` before any observation."""
        return self._max_event_time

    @property
    def count(self) -> int:
        """Number of observations folded into the frontier."""
        return self._count

    def observe(self, event_time: EventTimeStamp) -> EventTimeStamp:
        """Fold one event timestamp into the frontier; return the frontier."""
        self._count += 1
        if event_time > self._max_event_time:
            self._max_event_time = event_time
        return self._max_event_time
