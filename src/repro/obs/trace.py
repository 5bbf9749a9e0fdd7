"""Structured tracing: typed span/event records of one pipeline run.

The engine and the adaptive core are instrumented with *trace hooks*: at
every interesting state change (element admitted, buffer push/release,
frontier advance, window open/close/flush/retire, adaptation round,
sanitizer finding) they call a method on their attached :class:`Tracer`.
Two implementations exist:

* :class:`NullTracer` — the default.  Every hook is a no-op and
  ``enabled`` is ``False``, so instrumented hot paths pay exactly one
  attribute check (``if tracer.enabled:``) when tracing is off.  The
  measured cost is below 5% on the naive-window benchmark (see
  ``docs/OBSERVABILITY.md``).
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
untraced one (property-tested in ``tests/property/test_trace_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

#: Every record kind a recorder can emit, with the fields it carries.
#: This is the trace schema; ``docs/OBSERVABILITY.md`` documents each kind.
EVENT_KINDS = (
    "run.start",  # handler, n_elements, batch_size, sanitize
    "run.end",  # n_results, wall_time_s
    "chunk",  # count (batched runs: one per processed chunk)
    "element.admitted",  # event_time, key (detail mode only)
    "buffer.push",  # count, buffered
    "buffer.release",  # count, buffered
    "buffer.flush",  # count
    "frontier.advance",  # frontier, buffered
    "window.open",  # key, start, end
    "window.close",  # key, start, end, value, count, latency
    "window.flush",  # key, start, end, value, count, latency
    "window.retire",  # key, start, end, emitted, corrected, error, late_updates
    "late.drop",  # key, event_time, window_end
    "tree.patch",  # slice_index, depth (partial-aggregate path invalidated)
    "tree.assemble",  # key, end, nodes (cached partials combined per window)
    "shard.ingest",  # shard, count (elements routed to one shard)
    "shard.dispatch",  # shard, chunk, count, bytes (one encoded chunk shipped)
    "shard.collect",  # shard, results, events, chunks (one partial run joined)
    "shard.merge",  # key, start, end, shards, value, count (merged window)
    "adaptation",  # k_before, k_after, k_estimate, allowed_late_fraction,
    #               error_ewma, gain, residual, target
    "sanitizer.finding",  # check, message
    "meta",  # free-form run metadata
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        kind: Record kind; one of :data:`EVENT_KINDS`.
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


class Tracer:
    """No-op tracing interface; the base of every recorder.

    Engine call sites guard every hook with ``if tracer.enabled:`` so the
    off state costs one attribute check; the hooks themselves are also
    no-ops, so an unguarded call is merely slow, never wrong.

    Attributes:
        enabled: ``False`` on the null tracer, ``True`` on recorders.
        detail: When ``True``, recorders also keep per-element records
            (``element.admitted``, per-push buffer records); off by
            default because they dominate trace size.
    """

    enabled: bool = False
    detail: bool = False

    def run_start(
        self,
        sim_time: float,
        handler: str,
        n_elements: int,
        batch_size: int,
        sanitize: bool,
    ) -> None:
        """Pipeline began consuming a stream."""

    def run_end(self, sim_time: float, n_results: int, wall_time_s: float) -> None:
        """Pipeline finished (after the final flush)."""

    def chunk(self, sim_time: float, count: int) -> None:
        """Batched pipeline processed one chunk of ``count`` elements."""

    def element_admitted(self, sim_time: float, event_time: float, key: object) -> None:
        """One element entered the operator (detail mode only)."""

    def buffer_push(self, sim_time: float, count: int, buffered: int) -> None:
        """``count`` element(s) pushed into a sorting buffer."""

    def buffer_release(self, sim_time: float, count: int, buffered: int) -> None:
        """``count`` element(s) released from a sorting buffer."""

    def buffer_flush(self, sim_time: float, count: int) -> None:
        """Stream end drained ``count`` element(s) out of a buffer."""

    def frontier_advance(self, sim_time: float, frontier: float, buffered: int) -> None:
        """The handler's event-time frontier moved (or was re-observed)."""

    def window_open(self, sim_time: float, key: object, start: float, end: float) -> None:
        """A window slot got its first on-time element."""

    def window_close(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        value: object,
        count: int,
        latency: float,
        flushed: bool,
    ) -> None:
        """A window was finalized and its result emitted."""

    def window_retire(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        emitted: object,
        corrected: object,
        error: float,
        late_updates: int | None,
    ) -> None:
        """A closed window left the feedback horizon; its observed error."""

    def late_drop(
        self, sim_time: float, key: object, event_time: float, window_end: float
    ) -> None:
        """An element arrived after its window closed and was dropped."""

    def tree_patch(self, sim_time: float, slice_index: int, depth: int) -> None:
        """A touched slice dirty-marked ``depth`` cached ancestors."""

    def tree_assemble(
        self, sim_time: float, key: object, end: float, nodes: int
    ) -> None:
        """A window was assembled from ``nodes`` cached partials."""

    def shard_ingest(self, sim_time: float, shard: int, count: int) -> None:
        """``count`` elements were routed to ``shard`` for execution."""

    def shard_dispatch(
        self, sim_time: float, shard: int, chunk: int, count: int, n_bytes: int
    ) -> None:
        """One encoded chunk of ``count`` elements was shipped to ``shard``."""

    def shard_collect(
        self, sim_time: float, shard: int, results: int, events: int, chunks: int
    ) -> None:
        """One shard's partial run was collected back from its worker."""

    def absorb(self, events: list["TraceEvent"]) -> None:
        """Merge events recorded by another (worker-side) recorder.

        No-op on the null tracer.  Recorders re-timestamp the absorbed
        events into their own wall clock (see
        :meth:`TraceRecorder.absorb`); simulated-time stamps are shared
        by construction and pass through unchanged.
        """

    def shard_merge(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        shards: int,
        value: float,
        count: int,
    ) -> None:
        """The merge stage combined ``shards`` partial(s) into one window."""

    def adaptation(
        self,
        sim_time: float,
        k_before: float,
        k_after: float,
        k_estimate: float,
        allowed_late_fraction: float,
        error_ewma: float | None,
        gain: float | None,
        residual: float | None,
        target: str,
    ) -> None:
        """One adaptation round of the quality-driven controller."""

    def sanitizer_finding(self, sim_time: float, check: str, message: str) -> None:
        """A StreamSan checker is about to raise ``SanitizerError``."""

    def meta(self, sim_time: float, **fields: object) -> None:
        """Attach free-form metadata to the trace."""


class NullTracer(Tracer):
    """The default tracer: records nothing, costs one attribute check."""


#: Shared default instance; engine classes point at this when no recorder
#: is attached, so ``tracer.enabled`` is always a valid (False) check.
NULL_TRACER = NullTracer()


class TraceRecorder(Tracer):
    """In-memory recorder of :class:`TraceEvent` records.

    Args:
        detail: Also record per-element events (``element.admitted`` and
            per-push buffer records).  Default off: detail records grow
            linearly with the stream and are only needed for fine-grained
            debugging.
        max_events: Hard cap on retained records.  Once reached, further
            records are counted in :attr:`dropped` instead of stored, so a
            runaway trace degrades instead of exhausting memory.

    The recorder deduplicates ``frontier.advance`` records: only actual
    advances are stored (the frontier is re-observed on every offer, which
    would otherwise dominate the trace).
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

    # ------------------------------------------------------------------ #
    # recording

    def _emit(self, kind: str, sim_time: float, fields: dict[str, object]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(
                kind=kind,
                sim_time=sim_time,
                wall_time=time.perf_counter() - self._epoch,
                fields=fields,
            )
        )

    def run_start(
        self,
        sim_time: float,
        handler: str,
        n_elements: int,
        batch_size: int,
        sanitize: bool,
    ) -> None:
        """Record the run header."""
        self._emit(
            "run.start",
            sim_time,
            {
                "handler": handler,
                "n_elements": n_elements,
                "batch_size": batch_size,
                "sanitize": sanitize,
            },
        )

    def run_end(self, sim_time: float, n_results: int, wall_time_s: float) -> None:
        """Record the run footer."""
        self._emit(
            "run.end",
            sim_time,
            {"n_results": n_results, "wall_time_s": wall_time_s},
        )

    def chunk(self, sim_time: float, count: int) -> None:
        """Record one processed chunk of a batched run."""
        self._emit("chunk", sim_time, {"count": count})

    def element_admitted(self, sim_time: float, event_time: float, key: object) -> None:
        """Record one admitted element (only in detail mode)."""
        if self.detail:
            self._emit(
                "element.admitted", sim_time, {"event_time": event_time, "key": key}
            )

    def buffer_push(self, sim_time: float, count: int, buffered: int) -> None:
        """Record a buffer push (single pushes only in detail mode)."""
        if count > 1 or self.detail:
            self._emit("buffer.push", sim_time, {"count": count, "buffered": buffered})

    def buffer_release(self, sim_time: float, count: int, buffered: int) -> None:
        """Record a buffer release."""
        self._emit("buffer.release", sim_time, {"count": count, "buffered": buffered})

    def buffer_flush(self, sim_time: float, count: int) -> None:
        """Record the end-of-stream buffer drain."""
        self._emit("buffer.flush", sim_time, {"count": count})

    def frontier_advance(self, sim_time: float, frontier: float, buffered: int) -> None:
        """Record a frontier advance (deduplicated against the last one)."""
        if frontier > self._last_frontier:
            self._last_frontier = frontier
            self._emit(
                "frontier.advance",
                sim_time,
                {"frontier": frontier, "buffered": buffered},
            )

    def window_open(self, sim_time: float, key: object, start: float, end: float) -> None:
        """Record a window opening."""
        self._emit("window.open", sim_time, {"key": key, "start": start, "end": end})

    def window_close(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        value: object,
        count: int,
        latency: float,
        flushed: bool,
    ) -> None:
        """Record a window close (``window.flush`` when force-closed)."""
        self._emit(
            "window.flush" if flushed else "window.close",
            sim_time,
            {
                "key": key,
                "start": start,
                "end": end,
                "value": value,
                "count": count,
                "latency": latency,
            },
        )

    def window_retire(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        emitted: object,
        corrected: object,
        error: float,
        late_updates: int | None,
    ) -> None:
        """Record a window retirement with its observed error."""
        self._emit(
            "window.retire",
            sim_time,
            {
                "key": key,
                "start": start,
                "end": end,
                "emitted": emitted,
                "corrected": corrected,
                "error": error,
                "late_updates": late_updates,
            },
        )

    def late_drop(
        self, sim_time: float, key: object, event_time: float, window_end: float
    ) -> None:
        """Record a dropped late element."""
        self._emit(
            "late.drop",
            sim_time,
            {"key": key, "event_time": event_time, "window_end": window_end},
        )

    def tree_patch(self, sim_time: float, slice_index: int, depth: int) -> None:
        """Record one dirty-path patch of the partial-aggregate tree."""
        self._emit("tree.patch", sim_time, {"slice_index": slice_index, "depth": depth})

    def tree_assemble(
        self, sim_time: float, key: object, end: float, nodes: int
    ) -> None:
        """Record one window assembly from cached partials (detail mode)."""
        if self.detail:
            self._emit("tree.assemble", sim_time, {"key": key, "end": end, "nodes": nodes})

    def shard_ingest(self, sim_time: float, shard: int, count: int) -> None:
        """Record one shard's routed-element count at stream end."""
        self._emit("shard.ingest", sim_time, {"shard": shard, "count": count})

    def shard_dispatch(
        self, sim_time: float, shard: int, chunk: int, count: int, n_bytes: int
    ) -> None:
        """Record one encoded chunk shipped to a shard worker."""
        self._emit(
            "shard.dispatch",
            sim_time,
            {"shard": shard, "chunk": chunk, "count": count, "bytes": n_bytes},
        )

    def shard_collect(
        self, sim_time: float, shard: int, results: int, events: int, chunks: int
    ) -> None:
        """Record one shard's partial run joining the coordinator."""
        self._emit(
            "shard.collect",
            sim_time,
            {"shard": shard, "results": results, "events": events, "chunks": chunks},
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

    def shard_merge(
        self,
        sim_time: float,
        key: object,
        start: float,
        end: float,
        shards: int,
        value: float,
        count: int,
    ) -> None:
        """Record one merged window and how many shards contributed."""
        self._emit(
            "shard.merge",
            sim_time,
            {
                "key": key,
                "start": start,
                "end": end,
                "shards": shards,
                "value": value,
                "count": count,
            },
        )

    def adaptation(
        self,
        sim_time: float,
        k_before: float,
        k_after: float,
        k_estimate: float,
        allowed_late_fraction: float,
        error_ewma: float | None,
        gain: float | None,
        residual: float | None,
        target: str,
    ) -> None:
        """Record one adaptation round with its feedback terms."""
        self._emit(
            "adaptation",
            sim_time,
            {
                "k_before": k_before,
                "k_after": k_after,
                "k_estimate": k_estimate,
                "allowed_late_fraction": allowed_late_fraction,
                "error_ewma": error_ewma,
                "gain": gain,
                "residual": residual,
                "target": target,
            },
        )

    def sanitizer_finding(self, sim_time: float, check: str, message: str) -> None:
        """Record a StreamSan finding just before it raises."""
        self._emit("sanitizer.finding", sim_time, {"check": check, "message": message})

    def meta(self, sim_time: float, **fields: object) -> None:
        """Record free-form metadata."""
        self._emit("meta", sim_time, dict(fields))
