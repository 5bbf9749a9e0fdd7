"""Structured tracing: typed span/event records of one pipeline run.

At every state change the schema :data:`EVENT_KINDS` names, the engine
and the adaptive core call ``tracer.emit(kind, sim_time, **fields)`` on
their attached :class:`Tracer`.  Two implementations exist:

* :class:`NullTracer` — the default.  ``emit`` is a no-op and ``enabled``
  is ``False``, so instrumented hot paths pay exactly one attribute check
  (``if tracer.enabled:``) when tracing is off.  The measured cost is
  below 5% on the naive-window benchmark (see ``docs/OBSERVABILITY.md``).
* :class:`TraceRecorder` — an in-memory recorder producing a list of
  :class:`TraceEvent` records keyed by **simulated time** (the arrival
  timestamp of the element in flight) *and* **wall time** (seconds since
  the recorder was created).

Records are exported with :mod:`repro.obs.export` (JSONL and Chrome
``trace_event`` for Perfetto) and summarized with :mod:`repro.obs.report`.

The recorder stays out of the engine's simulated-time discipline on
purpose: wall-clock reads happen *here*, never in ``repro.engine`` /
``repro.core`` (repro-lint rule R01), and trace content never feeds back
into results — a traced run emits bit-identical window results to an
untraced one (the observe axis of ``tests/property/test_execution_matrix.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

_WINDOW = ("key", "start", "end", "value", "count", "latency")

#: The trace schema: every record kind, with the field names its records
#: carry, in order.  ``docs/OBSERVABILITY.md`` documents each kind.
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "run.start": ("handler", "n_elements", "batch_size", "sanitize"),
    "run.end": ("n_results", "wall_time_s"),
    "element.admitted": ("event_time", "key"),  # detail mode only
    "buffer.push": ("count", "buffered"),  # single pushes in detail mode only
    "buffer.release": ("count", "buffered"),
    "frontier.advance": ("frontier", "buffered"),  # actual advances only
    "window.open": ("key", "start", "end"),
    "window.close": _WINDOW,
    "window.flush": _WINDOW,  # force-closed at stream end
    "window.retire": (
        "key", "start", "end", "emitted", "corrected", "error", "late_updates",
    ),
    "late.drop": ("key", "event_time", "window_end"),
    "tree.patch": ("slice_index", "depth"),  # partial-aggregate path invalidated
    "shard.dispatch": ("shard", "chunk", "count", "bytes"),  # one chunk shipped
    "shard.collect": ("shard", "results", "events", "chunks"),  # one run joined
    "shard.merge": ("key", "start", "end", "shards", "value", "count"),
    "adaptation": (
        "k_before", "k_after", "k_estimate", "allowed_late_fraction",
        "error_ewma", "gain", "residual", "target",
    ),
    "sanitizer.finding": ("check", "message"),
}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        kind: Record kind; a key of :data:`EVENT_KINDS`.
        sim_time: Simulated-time stamp in seconds.  For most kinds this is
            the arrival-time processing clock; buffer records are stamped
            with the event-time threshold of the release (the handler
            frontier) because the buffer sits below the arrival clock.
            Non-finite before the first element (``-inf`` frontier).
        wall_time: Wall-clock seconds since the recorder's creation
            (``time.perf_counter`` based); strictly nondecreasing within
            one recorder.
        fields: Kind-specific payload (see :data:`EVENT_KINDS`).
    """

    kind: str
    sim_time: float
    wall_time: float
    fields: dict[str, object]


_SET_KIND, _SET_SIM_TIME, _SET_WALL_TIME, _SET_FIELDS = (
    vars(TraceEvent)[field].__set__ for field in TraceEvent.__slots__
)


def _new_event(
    kind: str, sim_time: float, wall_time: float, fields: dict[str, object]
) -> TraceEvent:
    """``TraceEvent(...)`` at 60% of the cost, the bulk of a record's: the
    slot descriptors skip the frozen ``__init__``'s ``object.__setattr__``."""
    event = object.__new__(TraceEvent)
    _SET_KIND(event, kind)
    _SET_SIM_TIME(event, sim_time)
    _SET_WALL_TIME(event, wall_time)
    _SET_FIELDS(event, fields)
    return event


class Tracer:
    """No-op tracing interface; the base of every recorder.

    Engine call sites guard every :meth:`emit` with ``if tracer.enabled:``
    so the off state costs one attribute check; ``emit`` itself is also a
    no-op here, so an unguarded call is merely slow, never wrong.

    Attributes:
        enabled: ``False`` on the null tracer, ``True`` on recorders.
        detail: When ``True``, recorders also keep per-element records
            (``element.admitted``, per-push buffer records); off by
            default because they dominate trace size.
    """

    enabled: bool = False
    detail: bool = False

    def __reduce__(self) -> tuple[Any, ...]:
        # Observers are not state: a snapshot (checkpoint, deepcopy) of
        # whatever holds a tracer loads with the null one until set_tracer.
        return _null_tracer, ()

    def emit(self, kind: str, sim_time: float, **fields: Any) -> None:
        """Record one ``kind`` event; ``fields`` are ``EVENT_KINDS[kind]``."""

    def absorb(self, events: list["TraceEvent"]) -> None:
        """Merge events recorded by another (worker-side) recorder.

        No-op on the null tracer.  Recorders re-timestamp the absorbed
        events into their own wall clock (see
        :meth:`TraceRecorder.absorb`); simulated-time stamps are shared
        by construction and pass through unchanged.
        """


class NullTracer(Tracer):
    """The default tracer: records nothing, costs one attribute check."""


#: Shared default instance; engine classes point at this when no recorder
#: is attached, so ``tracer.enabled`` is always a valid (False) check.
NULL_TRACER = NullTracer()


def _null_tracer() -> NullTracer:
    return NULL_TRACER


class TraceRecorder(Tracer):
    """In-memory recorder of :class:`TraceEvent` records.

    Args:
        detail: Also record per-element events (``element.admitted`` and
            single-element ``buffer.push``).  Default off: detail records
            grow linearly with the stream and are only needed for
            fine-grained debugging.
        max_events: Hard cap on retained records.  Once reached, further
            records are counted in :attr:`dropped` instead of stored, so a
            runaway trace degrades instead of exhausting memory.

    The recorder deduplicates ``frontier.advance`` records: only actual
    advances are stored, whoever emits them.
    """

    enabled = True

    def __init__(self, detail: bool = False, max_events: int = 1_000_000) -> None:
        self.detail = detail
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._last_frontier = float("-inf")
        self._epoch = time.perf_counter()

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, *kinds: str) -> Iterator[TraceEvent]:
        """Iterate recorded events of the given kind(s), in record order."""
        wanted = set(kinds)
        return (event for event in self.events if event.kind in wanted)

    def clear(self) -> None:
        """Drop all recorded events (the wall-time epoch is kept)."""
        self.events.clear()
        self.dropped = 0
        self._last_frontier = float("-inf")

    def emit(self, kind: str, sim_time: float, **fields: Any) -> None:
        """Record one event, unless it is a re-observed frontier or a
        per-element record outside detail mode."""
        if kind == "frontier.advance":
            frontier = fields["frontier"]
            if not frontier > self._last_frontier:
                return
            self._last_frontier = frontier
        elif not self.detail and (
            kind == "element.admitted"
            or (kind == "buffer.push" and fields["count"] == 1)
        ):
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            _new_event(kind, sim_time, time.perf_counter() - self._epoch, fields)
        )

    def absorb(self, events: list[TraceEvent]) -> None:
        """Merge worker-recorded events, re-timestamped into this clock.

        Worker recorders measure wall time against their own process
        epoch, which is meaningless in the coordinator.  Absorbing shifts
        every event by one constant so the *newest* absorbed event lands
        at the coordinator's current wall offset — relative spacing
        within the worker trace is preserved, and absorbed events can
        never appear to come from the future.  Events beyond
        ``max_events`` are counted in :attr:`dropped`, like native ones.
        """
        if not events:
            return
        now = time.perf_counter() - self._epoch
        shift = now - max(event.wall_time for event in events)
        for index, event in enumerate(events):
            if len(self.events) >= self.max_events:
                self.dropped += len(events) - index
                return
            self.events.append(
                TraceEvent(
                    kind=event.kind,
                    sim_time=event.sim_time,
                    wall_time=event.wall_time + shift,
                    fields=dict(event.fields),
                )
            )
