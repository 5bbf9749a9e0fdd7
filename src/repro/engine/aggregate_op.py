"""The windowed aggregation operator with pluggable disorder handling.

:class:`WindowAggregateOperator` wires together a window assigner, an
aggregate function and a :class:`~repro.engine.handlers.DisorderHandler`:

1. every arriving element is offered to the handler, which may buffer it and
   releases zero or more elements downstream;
2. released elements are staged for their (still open) windows and folded
   when one of them closes; elements whose windows were already finalized
   are **late** — they are dropped from results but recorded for quality
   feedback;
3. the handler's frontier finalizes windows (``end <= frontier``), emitting
   :class:`~repro.engine.operator.WindowResult` rows stamped with the
   current arrival time.

Quality feedback loop
---------------------

Closed windows are retained (accumulator included) for ``feedback_horizon``
seconds of event time.  Late elements arriving within the horizon keep
updating the retained accumulator, so when a record retires the operator
knows both the value it *emitted* and the best late-corrected value — their
relative difference is an *observed error* sample.  These samples are
reported to the handler via ``observe_error``; the adaptive quality-driven
handler uses them to correct its error model at runtime.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.numeric import as_real, relative_drift
from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import DisorderHandler
from repro.engine.operator import Operator, WindowResult
from repro.engine.windows import SlidingWindowAssigner, Window, WindowAssigner
from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement
from repro.streams.timebase import ArrivalTimeStamp, DurationS, EventTimeStamp

if TYPE_CHECKING:
    from array import array

    from repro.engine.partial_tree import _SliceStore, _SliceTree

#: Values one cell or slice entry may hold staged: a window that stays open
#: over more arrivals (an hour-long tumbling one) folds what it holds here.
STAGED_FOLD_LIMIT = 4096


class _SliceAssignCache:
    """Memoized sliding-window assignment keyed by slide index.

    All timestamps falling into the same slide interval get the same
    window list, so the cache stores, per guard index, the window list plus
    the exact float interval ``[low, high)`` over which replaying
    ``assign`` is *provably* bit-identical:

    * ``high`` caps at ``(index + 1) * slide`` (same guard index) and at
      ``windows[0].end`` (no window drops off the low end earlier);
    * ``low`` floors at ``index * slide`` (same guard index) and at the end
      of the next-lower candidate window (it must stay excluded).

    Both bounds are computed from the same float expressions ``assign``
    itself evaluates, so a hit returns exactly what ``assign`` would.
    Timestamps outside the interval — and pathological rounding cases where
    the window list is not a contiguous index run — fall back to ``assign``.
    """

    __slots__ = ("assigner", "slide", "size", "entries")

    def __init__(self, assigner: SlidingWindowAssigner) -> None:
        self.assigner = assigner
        self.slide = assigner.slide
        self.size = assigner.size
        self.entries: dict[int, tuple[float, float, list[Window]]] = {}

    def lookup(
        self, index: int, timestamp: EventTimeStamp
    ) -> tuple[float, float, list[Window]]:
        """``(low, high, windows)`` for ``timestamp``, whose guard index is ``index``."""
        entry = self.entries.get(index)
        if entry is not None and entry[0] <= timestamp < entry[1]:
            return entry
        slide = self.slide
        windows = self.assigner.assign(timestamp)
        low_index = index - len(windows) + 1
        # Exact float equality is intentional here (R03): the cache is only
        # valid when these starts equal the *bit-identical* expressions
        # ``assign`` itself computes; a tolerance would admit wrong hits.
        if not (
            windows
            and windows[-1].start == index * slide  # repro-lint: disable=R03
            and windows[0].start == low_index * slide  # repro-lint: disable=R03
        ):
            return timestamp, timestamp, windows  # holds for this timestamp only
        high = min((index + 1) * slide, windows[0].end)
        low = index * slide
        if low_index >= 1:
            previous_end = (low_index - 1) * slide + self.size
            if previous_end > low:
                low = previous_end
        entry = self.entries[index] = (low, high, windows)
        return entry


def relative_error(emitted, truth, eps: float = 1e-9) -> float:
    """Symmetric-denominator relative error in [0, inf).

    ``nan`` emitted against real truth (a missed window) counts as full
    loss (1.0); two ``nan`` values agree (0.0).  Results that are not real
    numbers (set-valued aggregates like top-k) are scored exact-match: 0.0
    when equal, 1.0 otherwise; numpy scalars are numbers.
    """
    emitted_real, truth_real = as_real(emitted), as_real(truth)
    if emitted_real is None or truth_real is None:
        return 0.0 if emitted == truth else 1.0
    emitted, truth = emitted_real, truth_real
    emitted_nan = isinstance(emitted, float) and math.isnan(emitted)
    truth_nan = isinstance(truth, float) and math.isnan(truth)
    if emitted_nan and truth_nan:
        return 0.0
    if emitted_nan or truth_nan:
        return 1.0
    # Shared drift metric from the numerics module (identical formula;
    # the eps floor here is the quality-scoring one, not the drift one).
    return relative_drift(emitted, truth, eps)


@dataclass(slots=True)
class _ClosedRecord:
    """Bookkeeping for a finalized window awaiting late corrections
    (``revision`` counts the speculative operator's re-emissions of it)."""

    accumulator: object
    emitted_value: float
    emitted_count: int
    late_updates: int = 0
    revision: int = 0


@dataclass(slots=True)
class OperatorStats:
    """Counters and samples collected during a run."""

    elements_in: int = 0
    results_out: int = 0
    late_dropped: int = 0
    late_applied_to_feedback: int = 0
    missed_windows: int = 0
    observed_errors: list[float] = field(default_factory=list)


def _emit(
    results: list[WindowResult],
    tracer: Tracer,
    key: object,
    window: Window,
    value: float,
    count: int,
    emit_time: ArrivalTimeStamp,
    flushed: bool,
) -> None:
    """Append one finalized window to ``results`` and trace its close."""
    latency = emit_time - window.end
    results.append(
        WindowResult(key, window, value, count, emit_time, latency, flushed=flushed)
    )
    if tracer.enabled:
        tracer.window_close(
            emit_time, key, window.start, window.end, value, count, latency, flushed
        )


@dataclass(slots=True)
class _Cell:
    """What one ``(key, slide interval)`` resolves to in the per-window store.

    Elements with ``low <= event_time < high`` (the interval
    :class:`_SliceAssignCache` proves) share their windows: ``late`` holds
    those closed before the cell was built, ``on_time`` the rest, ``records``
    the open ``[accumulator, count]`` of each ``on_time`` window (``None``
    until an element opens them), ``values`` what waits for the next fold.
    """

    low: float
    high: float
    late: list[Window]
    on_time: list[Window]
    records: list[list[Any]] | None = None
    values: list[Any] = field(default_factory=list)


class _PerWindowStore:
    """One accumulator per open ``(key, window)``: the reference window store.

    Every element is added to each window containing it, so this is the
    only store that takes unaligned windows and non-mergeable sketches.
    Closed windows stay retained (accumulator included) for
    ``feedback_horizon`` seconds; late elements keep updating the retained
    accumulator, and a window nobody opened before its close is retained
    as a *phantom* record, so missed windows are scored too.

    Under a sliding assigner an element's windows are found once per
    ``(key, slide interval)``, not once per element: :meth:`stage` keeps
    one :class:`_Cell` per interval, keyed by slide index, so an element
    costs one probe and one append, and its folds are one ``add_many`` per
    record when a window closes.  A cell's
    late/on-time split stands until a window closes (the frontier cannot
    pass an open window without :meth:`close` emitting it), so every emitting
    close drops all cells and the assign memo — which bounds both by the
    slide intervals that have an open window.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        feedback_horizon: DurationS,
        track_feedback: bool,
    ) -> None:
        self.assigner = assigner
        self.aggregate = aggregate
        self.feedback_horizon = feedback_horizon
        self.track_feedback = track_feedback
        self.stats = OperatorStats()
        self.tracer: Tracer = NULL_TRACER
        #: Called as ``(key, window, record, now)`` after a late element
        #: changed a retained record (the speculative operator's hook).
        self.on_late_update: Callable[..., None] | None = None
        self.close_frontier = float("-inf")
        # (key, window) -> [accumulator, count]
        self._open: dict[tuple[object, Window], list[Any]] = {}
        self._open_heap: list[tuple[float, int, object, Window]] = []
        self._heap_seq = 0
        self._closed: OrderedDict[tuple[object, Window], _ClosedRecord] = OrderedDict()
        # Retained records keyed by window end, so retirement pops instead of
        # scanning every retained record per element.
        self._closed_heap: list[tuple[float, int, tuple[object, Window]]] = []
        # Other assigners have no slide interval: they assign per element.
        self._cache = (
            _SliceAssignCache(assigner)
            if isinstance(assigner, SlidingWindowAssigner)
            else None
        )
        # (key, slide index) -> cell
        self._cells: dict[tuple[object, int], _Cell] = {}
        # Cells holding staged values, in first-staged order (the fold order).
        self._staged: list[_Cell] = []

    def set_tracer(self, tracer: Tracer) -> None:
        self.tracer = tracer

    # ------------------------------------------------------------------ #
    # ingestion

    def add(self, element: StreamElement, now: ArrivalTimeStamp) -> None:
        """Fold one element into every window the (unaligned) assigner
        gives it: no slide interval, so nothing to stage under."""
        tracer = self.tracer
        if tracer.enabled and tracer.detail:
            tracer.element_admitted(now, element.event_time, element.key)
        key = element.key
        for window in self.assigner.assign(element.event_time):
            slot = (key, window)
            if window.end <= self.close_frontier:
                self._record_late(element, window, now)
                continue
            record = self._open.get(slot) or self._open_slot(slot, now)
            self.aggregate.add(record[0], element.value)
            record[1] += 1

    def _build_cell(
        self, cache: _SliceAssignCache, key: object, index: int, timestamp: EventTimeStamp
    ) -> _Cell:
        """A fresh cell for ``timestamp`` (guard index ``index``): built when
        :meth:`stage` finds none, or one whose bounds miss."""
        low, high, windows = cache.lookup(index, timestamp)
        close_frontier = self.close_frontier
        late = [w for w in windows if w.end <= close_frontier]  # a prefix: ends ascend
        cell = _Cell(low, high, late, windows[len(late) :] if late else windows)
        if cell.on_time:
            self._cells[(key, index)] = cell
        else:
            # Every window is closed: no close is left to drop what is kept.
            cache.entries.pop(index, None)
        return cell

    def _open_cell(self, cell: _Cell, key: object, now: ArrivalTimeStamp) -> None:
        """Open the cell's on-time windows, in ascending-start order."""
        records = cell.records = []
        for window in cell.on_time:
            slot = (key, window)
            records.append(self._open.get(slot) or self._open_slot(slot, now))

    def _open_slot(self, slot: tuple[object, Window], now: ArrivalTimeStamp) -> list[Any]:
        key, window = slot
        record = self._open[slot] = [self.aggregate.create(), 0]
        self._heap_seq += 1
        heapq.heappush(self._open_heap, (window.end, self._heap_seq, key, window))
        if self.tracer.enabled:
            self.tracer.window_open(now, key, window.start, window.end)
        return record

    def stage(self, element: StreamElement, now: ArrivalTimeStamp) -> None:
        """Take one released element: its value folds when a close emits
        (late values reach their retained records at once)."""
        cache = self._cache
        if cache is None:
            self.add(element, now)
            return
        tracer = self.tracer
        if tracer.enabled and tracer.detail:
            tracer.element_admitted(now, element.event_time, element.key)
        key = element.key
        timestamp = element.event_time
        slide = cache.slide
        index = math.floor(timestamp / slide)  # assign's guard index
        while index * slide > timestamp:
            index -= 1
        while (index + 1) * slide <= timestamp:
            index += 1
        cell = self._cells.get((key, index))
        if cell is None or not cell.low <= timestamp < cell.high:
            cell = self._build_cell(cache, key, index, timestamp)
        if cell.on_time:
            if not cell.values:
                if cell.records is None:
                    self._open_cell(cell, key, now)
                self._staged.append(cell)
            cell.values.append(element.value)
            if len(cell.values) >= STAGED_FOLD_LIMIT:
                self.flush()
        for window in cell.late:
            self._record_late(element, window, now)

    def flush(self) -> None:
        """Fold every staged value into the records of its cell."""
        add_many = self.aggregate.add_many
        for cell in self._staged:
            values = cell.values
            for record in cell.records:
                add_many(record[0], values)
                record[1] += len(values)
            cell.values = []  # not cleared in place: add_many may keep the list
        self._staged.clear()

    def _record_late(
        self, element: StreamElement, window: Window, now: ArrivalTimeStamp
    ) -> None:
        self.stats.late_dropped += 1
        if self.tracer.enabled:
            self.tracer.late_drop(now, element.key, element.event_time, window.end)
        if not self.track_feedback:
            return
        slot = (element.key, window)
        record = self._closed.get(slot)
        if record is None:
            # Too old to still be retained, or the window never opened
            # before it closed (every element late).  Retain a phantom
            # record when still inside the horizon so the miss is scored.
            if window.end + self.feedback_horizon <= self.close_frontier:
                return
            record = _ClosedRecord(
                accumulator=self.aggregate.create(),
                emitted_value=math.nan,
                emitted_count=0,
            )
            self._closed[slot] = record
            self._heap_seq += 1
            heapq.heappush(self._closed_heap, (window.end, self._heap_seq, slot))
            self.stats.missed_windows += 1
        self.aggregate.add(record.accumulator, element.value)
        record.late_updates += 1
        self.stats.late_applied_to_feedback += 1
        if self.on_late_update is not None:
            self.on_late_update(element.key, window, record, now)

    # ------------------------------------------------------------------ #
    # window lifecycle

    def close(
        self, frontier: EventTimeStamp, emit_time: ArrivalTimeStamp, flushed: bool
    ) -> list[WindowResult]:
        """Emit every open window with ``end <= frontier``."""
        heap = self._open_heap
        if not heap or heap[0][0] > frontier:
            if frontier > self.close_frontier:
                self.close_frontier = frontier
            return []
        if self._staged:
            self.flush()
        # A window closes: every late/on-time split taken before it is stale.
        self._cells.clear()
        if self._cache is not None:
            self._cache.entries.clear()
        results: list[WindowResult] = []
        while heap and heap[0][0] <= frontier:
            end, __, key, window = heapq.heappop(heap)
            slot = (key, window)
            record = self._open.pop(slot, None)
            if record is None:
                continue
            accumulator, count = record
            value = self.aggregate.result(accumulator)
            _emit(results, self.tracer, key, window, value, count, emit_time, flushed)
            if self.track_feedback:
                self._closed[slot] = _ClosedRecord(
                    accumulator=accumulator,
                    emitted_value=value,
                    emitted_count=count,
                )
                self._heap_seq += 1
                heapq.heappush(self._closed_heap, (end, self._heap_seq, slot))
        if frontier > self.close_frontier:
            self.close_frontier = frontier
        self.stats.results_out += len(results)
        return results

    def retire(
        self,
        frontier: EventTimeStamp,
        now: ArrivalTimeStamp,
        observe_error: Callable[[float], None],
    ) -> None:
        """Score and drop the records leaving the feedback horizon (staged
        values all belong to windows still open, so none needs folding)."""
        heap = self._closed_heap
        retire_before = frontier - self.feedback_horizon
        closed = self._closed
        tracing = self.tracer.enabled
        while heap and heap[0][0] <= retire_before:
            __, __, slot = heapq.heappop(heap)
            record = closed.pop(slot, None)
            if record is None:
                continue
            corrected = self.aggregate.result(record.accumulator)
            error = relative_error(record.emitted_value, corrected)
            self.stats.observed_errors.append(error)
            if tracing:
                key, window = slot
                self.tracer.window_retire(
                    now, key, window.start, window.end, record.emitted_value,
                    corrected, error, record.late_updates,
                )
            observe_error(error)


_TREE_MEMBERS = frozenset(
    {"slice_count", "node_count", "patch_count", "max_patch_depth", "recompute_count"}
)

#: ``mode`` names accepted by :class:`WindowAggregateOperator`, the query
#: builder and the CLI.
EXECUTION_MODES = ("naive", "tree")


def unknown_mode_error(mode: object) -> ConfigurationError:
    """The error for a ``mode`` outside :data:`EXECUTION_MODES`; for the
    removed ``"sliced"`` the message names ``"tree"``, the slice store."""
    hint = '; mode="sliced" is gone, use mode="tree"' if mode == "sliced" else ""
    return ConfigurationError(
        f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}{hint}"
    )


class WindowAggregateOperator(Operator):
    """Sliding/tumbling window aggregation under a disorder handler.

    The one driver of the window-aggregate protocol: admit what the
    handler releases, close the windows the frontier passed, retire the
    windows leaving the feedback horizon and report their observed error
    to the handler.  ``mode`` only picks the *window store* — how window
    state is kept and assembled; every mode emits the same results:

    * ``"naive"`` — one accumulator per window (:class:`_PerWindowStore`):
      O(overlap) folds and one probe per element; the reference, takes any
      assigner and any aggregate;
    * ``"tree"`` — one accumulator per slice; a window closes with one
      merge from a per-key in-order fold, or from cached dyadic partials
      where late data reached it (:mod:`repro.engine.partial_tree`).
      Needs the slide to divide the window size and a mergeable
      aggregate, and scores only emitted windows at retirement (no
      phantom records).

    A store offers ``stage`` (take one released element; lateness is
    judged at once, the value waits), ``close(frontier, emit_time,
    flushed)`` and ``retire(frontier, now, observe_error)`` including its
    garbage collection — both fold what is staged before reading it,
    nothing else folds, and both return at once when nothing is due — and
    the ``close_frontier`` below which elements are late.
    """

    #: Attached tracer (see :mod:`repro.obs.trace`); the shared null tracer
    #: keeps instrumented paths at one attribute check when tracing is off.
    tracer: Tracer = NULL_TRACER

    #: When set to an ``array('d')``, every :meth:`process_many` step at
    #: which the frontier advances appends the pair ``arrival, frontier``
    #: to it (the closing element's arrival instant, the frontier it
    #: advanced to).  The shard runner, which drives batches only, reads
    #: its frontier timeline from here; the scalar path does not log.
    frontier_log: array[float] | None = None

    def __init__(
        self,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler: DisorderHandler,
        feedback_horizon: DurationS | None = None,
        track_feedback: bool = True,
        mode: str = "naive",
    ) -> None:
        if feedback_horizon is None:
            feedback_horizon = 5.0 * getattr(assigner, "size", 10.0)
        if feedback_horizon < 0:
            raise ConfigurationError(
                f"feedback_horizon must be non-negative, got {feedback_horizon}"
            )
        self.assigner = assigner
        self.handler = handler
        self.mode = mode
        # The one mode-to-store mapping (and the slice stores' preconditions).
        store: _PerWindowStore | _SliceStore
        if mode == "naive":
            store = _PerWindowStore(
                assigner, aggregate, feedback_horizon, track_feedback
            )
        elif mode not in EXECUTION_MODES:
            raise unknown_mode_error(mode)
        elif not isinstance(assigner, SlidingWindowAssigner):
            raise ConfigurationError(
                f"{mode} execution requires a sliding/tumbling window assigner"
            )
        else:
            from repro.engine.partial_tree import _SliceStore, _SliceTree

            ratio = assigner.size / assigner.slide
            span = round(ratio)
            if abs(ratio - span) > 1e-9:
                raise ConfigurationError(
                    f"{mode} execution requires slide to divide size "
                    f"(got size={assigner.size}, slide={assigner.slide}); "
                    'use mode="naive" for unaligned windows'
                )
            store = _SliceStore(
                _SliceTree(aggregate, assigner.slide, span),
                assigner.size, span, feedback_horizon, track_feedback,
            )
        self._store = store
        # The slice tree holds a slice store's aggregate (and its counters);
        # the per-window store holds its own.
        self._holder: _PerWindowStore | _SliceTree = getattr(store, "tree", store)
        self.stats = store.stats
        self._last_arrival = 0.0

    @property
    def aggregate(self) -> AggregateFunction:
        """The aggregate behind every fold, merge and result of the store.

        Assigning replaces it inside the store: the one seam a wrapper
        such as NumSan's shadow needs, in any mode.
        """
        return self._holder.aggregate

    @aggregate.setter
    def aggregate(self, aggregate: AggregateFunction) -> None:
        self._holder.aggregate = aggregate

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this operator, its store and its handler."""
        self.tracer = tracer
        self._store.set_tracer(tracer)
        set_handler_tracer = getattr(self.handler, "set_tracer", None)
        if set_handler_tracer is not None:
            set_handler_tracer(tracer)

    # ------------------------------------------------------------------ #
    # Operator protocol

    def process(self, element: StreamElement) -> list[WindowResult]:
        self.stats.elements_in += 1
        arrival = element.arrival_time
        if arrival is not None and arrival > self._last_arrival:
            self._last_arrival = arrival
        now = self._last_arrival
        store = self._store
        handler = self.handler
        for out in handler.offer(element):
            store.stage(out, now)
        frontier = handler.frontier
        if self.tracer.enabled:
            self.tracer.frontier_advance(now, frontier, handler.buffered_count())
        # Nothing closes or retires while the frontier stands still.
        if frontier <= store.close_frontier:
            return []
        results = store.close(frontier, now, False)
        store.retire(frontier, now, handler.observe_error)
        return results

    def process_many(self, elements: list[StreamElement]) -> list[WindowResult]:
        """Batched ingest: equivalent to ``process`` element-for-element.

        The input is cut where the handler's next error-fed adaptation
        fires (``next_adaptation_offset``), so the retirement feedback of
        every earlier element has been replayed before that round runs —
        the one place a batch is cut, whoever calls.  Each chunk then goes
        to the handler at once; per-element frontier checkpoints replay
        closes and retirement at exactly the scalar steps (late/on-time
        verdicts and feedback timing are unchanged).  Released elements
        are staged exactly as :meth:`process` stages them.
        """
        handler = self.handler
        results: list[WindowResult] = []
        n = len(elements)
        start = 0
        # A loop, not recursion: a chunk can hold hundreds of rounds.
        while start < n:
            stop = handler.next_adaptation_offset(elements, start, n)
            if stop is None:
                stop = n
            results.extend(self._process_chunk(elements[start:stop]))
            start = stop
        return results

    def _process_chunk(self, elements: list[StreamElement]) -> list[WindowResult]:
        """One ``offer_many`` and the replay of its checkpoints."""
        self.stats.elements_in += len(elements)
        handler = self.handler
        released, checkpoints = handler.offer_many(elements)
        store = self._store
        stage = store.stage
        tracer = self.tracer
        tracing = tracer.enabled
        results: list[WindowResult] = []
        now = self._last_arrival
        closed_to = store.close_frontier
        frontier_log = self.frontier_log
        prev_offset = 0
        for index, element in enumerate(elements):
            arrival = element.arrival_time
            if arrival is not None and arrival > now:
                now = arrival
            end_offset, frontier = checkpoints[index]
            while prev_offset < end_offset:
                stage(released[prev_offset], now)
                prev_offset += 1
            if tracing:
                tracer.frontier_advance(now, frontier, handler.buffered_count())
            if frontier > closed_to:
                closed_to = frontier
                if frontier_log is not None:
                    frontier_log.extend(
                        (now if arrival is None else arrival, frontier)
                    )
                results.extend(store.close(frontier, now, False))
                store.retire(frontier, now, handler.observe_error)
        self._last_arrival = now
        return results

    def finish(self) -> list[WindowResult]:
        now = self._last_arrival
        store = self._store
        for out in self.handler.flush():
            store.stage(out, now)
        results = store.close(float("inf"), now, True)
        store.retire(float("inf"), now, self.handler.observe_error)
        return results

    def __getattr__(self, name: str) -> Any:
        """Forward slice-tree introspection to the store's tree.

        ``slice_count()`` / ``node_count()`` (retained slices, cached
        interior nodes), ``patch_count``, ``max_patch_depth`` and
        ``recompute_count`` exist in tree mode only (the per-window
        store has no tree); all but ``slice_count()`` stay 0 until late
        data sends a window to the node cache.
        """
        if name in _TREE_MEMBERS and self.mode != "naive":
            return getattr(self._holder, name)
        raise AttributeError(name)
