"""Time-domain markers and helpers.

The engine runs on *simulated time*: the processing clock of a pipeline is
the arrival timestamp of the element currently being processed, which makes
every experiment deterministic and independent of host speed.  Wall-clock
time is measured separately (see :mod:`repro.engine.metrics`) only for
throughput/overhead experiments.
"""

from __future__ import annotations

import math
from typing import Annotated



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
