"""Slice-based window state: the slice store and its tree.

When the slide divides the window size, windows can be assembled from
non-overlapping **slices** of ``slide`` seconds (Li et al.'s panes /
Scotty-style stream slicing): each element is added to exactly one slice
accumulator instead of ``size/slide`` windows.  :class:`_SliceStore` is
that window store for
:class:`~repro.engine.aggregate_op.WindowAggregateOperator`
(``mode="tree"``).  A window is assembled one of two ways, following the
FiBA line of work (Tangwongsan, Hirzel & Schneider: amortized O(1)
in-order, O(log d) for an out-of-order insert at distance d):

* **In order — one merge.**  Per key the store keeps a two-stacks fold
  aligned to blocks of ``span = size/slide`` slices: the *suffix partials*
  of the block holding the window's first slice, built right to left from
  the leaves once per block (:meth:`_SliceStore._fold_block`), and one
  *running prefix* over the next block, extended at each close.  A window
  is ``merge(suffix[lo], prefix)``, read in :meth:`_SliceStore.close`:
  3.46 merges per window at overlap 64 (at most two per slice for the
  suffixes, one for the prefix, one at the close), nothing cached.
* **Where late data reached — the dyadic tree.**  An element that lands
  behind the close frontier may change a slice a fold already holds, so it
  raises the key's *dirty mark*; a window starting at or below the mark is
  assembled by :meth:`_SliceTree.assemble` instead, and once the key's
  windows start past the mark it is dropped (what the fold still holds
  covers later slices only).  The event-time-ordered slices are the leaves
  of a **dyadic partial-aggregate tree**:

  * node ``(level, i)`` caches the merged aggregate of slices
    ``[i * 2^level, (i + 1) * 2^level)``; nodes are materialized lazily
    the first time a window reads them and reused by every later one;
  * such a window combines the ~``2 * log2(size/slide)`` cached nodes of
    its dyadic decomposition instead of merging ``size/slide`` slices;
  * a late element patches only the O(log d) path of cached ancestors
    above its slice; every other cached partial stays valid, and
    retirement corrections reuse the patched partials.

  On an in-order stream no node is ever materialized, and while none is
  cached an append records nothing to patch.
* Retirement re-assembles (from the tree) only the windows a late element
  reached (the store marks, per key, each slice that changed under a
  closed window); every other window retires in O(1) with the value it
  emitted.

Either way a window's value is a function of its leaf slices and of which
path assembled it, and the path depends only on the key's own lateness
history, which scalar, batched and sharded runs share.  Semantics are
identical to the per-window store — a late element lands in its slice,
which already-closed windows no longer read but still-open windows will —
enforced by the store axis of the execution matrix in
``tests/property/test_execution_matrix.py``.  A *mergeable* aggregate is
required (every exact aggregate in :mod:`repro.engine.aggregates`
qualifies; an aggregate without ``merge`` does not).

Numerics: windows and interior nodes are built exclusively with
``aggregate.merge``, so fold and tree inherit the compensated arithmetic
of :mod:`repro.core.numeric` for sum/mean — partial totals carry their
Neumaier compensation term upward, keeping the whole decomposition at
O(1)-ulp error regardless of depth (``docs/NUMERICS.md``).
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Callable
from operator import itemgetter
from typing import Any

from repro.engine.aggregate_op import (
    STAGED_FOLD_LIMIT,
    OperatorStats,
    _emit,
    relative_error,
)
from repro.engine.aggregates import AggregateFunction
from repro.engine.operator import WindowResult
from repro.engine.windows import Window
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement
from repro.streams.timebase import ArrivalTimeStamp, DurationS, EventTimeStamp


class _SliceTree:
    """Dyadic tree of cached partial aggregates over event-time slices.

    Leaves (level 0) are the slice accumulators — the source of truth,
    updated in place by ingestion.  Interior nodes are created lazily at
    query time and cached as ``[accumulator, count, dirty]``.  Two
    invariants keep reads cheap and writes O(log):

    1. a cached node whose covered slices changed is marked ``dirty``;
    2. a cached *clean* node has only clean cached descendants (recomputes
       refresh whole dirty subtrees, creations derive from fresh children).

    Invariant 2 lets the dirty-mark walk stop at the first already-dirty
    ancestor.  Marking itself is deferred: ingestion only records touched
    slices (once each, in first-touched order), and :meth:`flush_touched`
    walks them immediately before any partials are read — so a burst of
    appends into one slice costs one walk, not one per element.
    """

    __slots__ = (
        "aggregate",
        "slide",
        "span",
        "max_level",
        "tracer",
        "sim_time",
        "patch_count",
        "max_patch_depth",
        "recompute_count",
        "_slices",
        "_nodes",
        "_touched",
        "_slice_gc",
        "_node_gc",
        "_gc_seq",
    )

    def __init__(self, aggregate: AggregateFunction, slide: DurationS, span: int) -> None:
        self.aggregate = aggregate
        self.slide = slide
        # The window extent in slices bounds both garbage-collection expiries
        # and the height of the dirty-mark walk: decompositions of a
        # span-length range use nodes up to one level above log2(span); the
        # +1 absorbs the off-by-one of odd alignments.
        self.span = span
        self.max_level = max(1, (span - 1).bit_length() + 1)
        self.tracer: Tracer = NULL_TRACER
        #: Simulated-time stamp for trace records; the owner refreshes it
        #: before driving closes and retirement.
        self.sim_time = 0.0
        self.patch_count = 0
        self.max_patch_depth = 0
        self.recompute_count = 0
        # slice_index -> {key: [accumulator, count, staged values, late count]}
        # (created and, in the last two slots, used by the owning store's
        # ``stage``).  A row expires as a whole: its expiry is the index's.
        self._slices: dict[int, dict[object, list[Any]]] = {}
        # (key, level, index) -> [accumulator, count, dirty]
        self._nodes: dict[tuple[object, int, int], list] = {}
        # Insertion-ordered, so the mark walk does not follow the hash seed.
        self._touched: dict[tuple[object, int], None] = {}
        # Min-heap of the row indices in _slices, one push per row.
        self._slice_gc: list[int] = []
        self._node_gc: list[tuple[float, int, tuple[object, int, int]]] = []
        self._gc_seq = 0

    # ------------------------------------------------------------------ #
    # ingestion side

    def touch(self, key: object, slice_index: int) -> None:
        """Record that a slice's accumulator changed (mark walk deferred).

        While no node is cached there is nothing to mark: a node created
        later is derived from the leaves as they are then.
        """
        if self._nodes:
            self._touched[(key, slice_index)] = None

    def flush_touched(self) -> None:
        """Dirty-mark the cached ancestors of every touched slice."""
        touched = self._touched
        if not touched:
            return
        nodes = self._nodes
        if not nodes:
            touched.clear()
            return
        max_level = self.max_level
        tracer = self.tracer
        tracing = tracer.enabled
        for key, index in touched:
            depth = 0
            idx = index
            for level in range(1, max_level + 1):
                idx >>= 1
                node = nodes.get((key, level, idx))
                if node is not None:
                    if node[2]:
                        # Invariant 2: its cached ancestors are already dirty.
                        break
                    node[2] = True
                    depth += 1
            if depth:
                self.patch_count += 1
                if depth > self.max_patch_depth:
                    self.max_patch_depth = depth
                if tracing:
                    tracer.emit(
                        "tree.patch", self.sim_time, slice_index=index, depth=depth
                    )
        touched.clear()

    # ------------------------------------------------------------------ #
    # query side

    def _node_value(self, key: object, level: int, index: int) -> list | None:
        """Fresh value of node ``(level, index)``: ``[acc, count, ...]``.

        Level 0 reads the slice store directly; interior nodes are served
        from cache when clean and recomputed (recursively, refreshing the
        whole dirty subtree) otherwise.  Returns ``None`` for uncovered
        ranges; callers skip entries with a zero count.
        """
        if level == 0:
            row = self._slices.get(index)
            return None if row is None else row.get(key)
        slot = (key, level, index)
        node = self._nodes.get(slot)
        if node is not None and not node[2]:
            return node
        left = self._node_value(key, level - 1, index + index)
        right = self._node_value(key, level - 1, index + index + 1)
        aggregate = self.aggregate
        accumulator = aggregate.create()
        count = 0
        if left is not None and left[1]:
            aggregate.merge(accumulator, left[0])
            count += left[1]
        if right is not None and right[1]:
            aggregate.merge(accumulator, right[0])
            count += right[1]
        self.recompute_count += 1
        if node is None:
            node = [accumulator, count, False]
            self._nodes[slot] = node
            self._gc_seq += 1
            last_slice = ((index + 1) << level) - 1
            heapq.heappush(
                self._node_gc,
                ((last_slice + self.span) * self.slide, self._gc_seq, slot),
            )
        else:
            node[0] = accumulator
            node[1] = count
            node[2] = False
        return node

    def assemble(self, key: object, lo: int, hi: int) -> tuple[object, int]:
        """Combine cached partials covering slices ``[lo, hi)``.

        Classic bottom-up dyadic decomposition: ~``2 * log2(hi - lo)``
        node reads, each served from cache or recomputed along its dirty
        path.  Returns ``(accumulator, count)``; the accumulator is fresh
        (cached partials are never mutated).
        Callers must :meth:`flush_touched` first.
        """
        aggregate = self.aggregate
        accumulator = aggregate.create()
        count = 0
        node_value = self._node_value
        level = 0
        while lo < hi:
            if lo & 1:
                entry = node_value(key, level, lo)
                lo += 1
                if entry is not None and entry[1]:
                    aggregate.merge(accumulator, entry[0])
                    count += entry[1]
            if hi & 1:
                hi -= 1
                entry = node_value(key, level, hi)
                if entry is not None and entry[1]:
                    aggregate.merge(accumulator, entry[0])
                    count += entry[1]
            lo >>= 1
            hi >>= 1
            level += 1
        return accumulator, count

    # ------------------------------------------------------------------ #
    # retention

    def gc_due(self, threshold: EventTimeStamp) -> bool:
        """Whether :meth:`gc` would drop anything at this threshold."""
        slice_gc = self._slice_gc
        node_gc = self._node_gc
        return bool(
            (slice_gc and (slice_gc[0] + self.span) * self.slide <= threshold)
            or (node_gc and node_gc[0][0] <= threshold)
        )

    def gc(self, threshold: EventTimeStamp) -> None:
        """Drop slices and nodes no reader can reach anymore.

        An entry covering slices up to ``s`` expires once the last window
        containing ``s`` (ending at ``(s + span) * slide``) is past the
        threshold — the caller subtracts its feedback horizon first.
        """
        rows = self._slice_gc
        slices = self._slices
        span = self.span
        slide = self.slide
        pop = heapq.heappop
        while rows and (rows[0] + span) * slide <= threshold:
            del slices[pop(rows)]
        heap = self._node_gc
        nodes = self._nodes
        while heap and heap[0][0] <= threshold:
            nodes.pop(pop(heap)[2], None)

    def slice_count(self) -> int:
        """Currently retained leaf slices (memory proxy)."""
        return sum(map(len, self._slices.values()))

    def node_count(self) -> int:
        """Currently cached interior nodes (memory proxy)."""
        return len(self._nodes)


class _BlockFold:
    """One key's in-order fold: suffix partials of a block, prefix of the next.

    ``suffix[j]`` is ``(accumulator, count)`` over slices ``base + j`` to the
    end of the block ``[base, base + span)``; ``prefix`` covers
    ``[base + span, prefix_to)``.  Built by :meth:`_SliceStore._fold_block`.
    """

    __slots__ = ("base", "suffix", "prefix", "prefix_count", "prefix_to")

    def __init__(self, base: int, span: int) -> None:
        self.base = base
        self.suffix: list[tuple[object, int] | None] = [None] * span
        self.prefix: object = None
        self.prefix_count = 0
        self.prefix_to = base + span


class _SliceStore:
    """The slice-based window store: its slice tree, and per-key close and
    retire cursors and folds over it.

    One staged value per element, one ``add_many`` per touched slice when
    something reads it; a window is assembled when it closes
    (by the fold, or by the tree where late data reached it) and, if a
    late element reached it since, again when it retires; retirement
    garbage-collects behind the horizon.

    Registering every window end of every new slice in a global heap
    would cost O(size/slide) pushes per slice and cap the tree's win
    exactly where overlap is high.  The store instead tracks, per key, the
    contiguous range of window-end indices still to close
    (``next_end..max_end``) and files each key under its next end: a
    bucket of keys per end index, plus a min-heap of those indices.
    Closing a window is O(1) amortized regardless of overlap.
    """

    __slots__ = (
        "tree",
        "size",
        "span",
        "feedback_horizon",
        "track_feedback",
        "stats",
        "close_frontier",
        "_gc_horizon",
        "_groups",
        "_next_end",
        "_max_end",
        "_scheduled",
        "_buckets",
        "_ends",
        "_retiring",
        "_late",
        "_folds",
        "_dirty_to",
    )

    def __init__(
        self,
        aggregate: AggregateFunction,
        slide: DurationS,
        size: DurationS,
        span: int,
        feedback_horizon: DurationS,
        track_feedback: bool,
    ) -> None:
        self.tree = _SliceTree(aggregate, slide, span)
        self.size = size
        self.span = span
        self.feedback_horizon = feedback_horizon
        self.track_feedback = track_feedback
        self.stats = OperatorStats()
        self.close_frontier = float("-inf")
        self._gc_horizon = feedback_horizon if track_feedback else 0.0
        # Slice entries holding staged values, in first-staged order (the
        # fold order); the values and the group's late count sit on the entry.
        self._groups: list[list[Any]] = []
        self._next_end: dict[object, int] = {}
        self._max_end: dict[object, int] = {}
        self._scheduled: set[object] = set()
        # end index -> keys filed there, in filing order (a rewind leaves a
        # stale copy behind: see close), and the min-heap of those indices.
        self._buckets: defaultdict[int, list[object]] = defaultdict(list)
        self._ends: list[int] = []
        # Emitted windows awaiting feedback retirement, (end, key, value) in
        # ascending end, ties in emission order (see close).
        self._retiring: deque[tuple[float, object, Any]] = deque()
        # key -> ascending indices of the slices that took an element after
        # a window containing them had closed; spent marks go at retirement.
        self._late: dict[object, list[int]] = {}
        # key -> the in-order fold its next window closes from.
        self._folds: dict[object, _BlockFold] = {}
        # key -> highest slice that changed behind the close frontier, where
        # a fold may already hold it: windows starting at or below it are
        # assembled from the tree instead.
        self._dirty_to: dict[object, int] = {}

    def late_verdict(self, key: object, slice_index: int) -> int:
        """Lateness verdict for an element just ingested into a slice.

        Returns :meth:`late_count`.  A slice behind the close frontier —
        the bare test, :meth:`late_count` is still 0 while every closed
        window holding the slice starts below 0 — may already be part of
        the key's fold, so it raises the key's dirty mark; one that
        outdates an emitted value is marked for retirement too.
        """
        if (slice_index + 1) * self.tree.slide > self.close_frontier:
            return 0
        if slice_index > self._dirty_to.get(key, -1):
            self._dirty_to[key] = slice_index
        late = self.late_count(slice_index)
        if late:
            self.mark_late(key, slice_index)
        return late

    def late_count(self, slice_index: int) -> int:
        """Already-closed windows containing the slice (lateness verdict).

        Mirrors the per-window store's accounting exactly: one drop per
        closed window with a non-negative start.  Window ends ascend with
        the offset, so the walk stops at the first end still open.
        """
        close_frontier = self.close_frontier
        slide = self.tree.slide
        if (slice_index + 1) * slide > close_frontier:
            return 0
        size = self.size
        late = 0
        for end_index in range(slice_index + 1, slice_index + 1 + self.span):
            end = end_index * slide
            if end > close_frontier:
                break
            if end - size >= 0:
                late += 1
        return late

    def mark_late(self, key: object, slice_index: int) -> None:
        """Remember that a slice changed under an already-closed window.

        Called whenever :meth:`late_count` is positive for an ingested
        element: retirement re-assembles exactly the windows whose slice
        range holds a mark, so every window whose emitted value a late
        element could have outdated is covered.
        """
        if not self.track_feedback:
            return
        last_end = (slice_index + self.span) * self.tree.slide
        if last_end <= self.close_frontier - self.feedback_horizon:
            return  # every window holding the slice has retired already
        marks = self._late.setdefault(key, [])
        at = bisect_left(marks, slice_index)
        if marks[at : at + 1] != [slice_index]:
            marks.insert(at, slice_index)

    def note_slice(self, key: object, slice_index: int) -> None:
        """Extend the key's closable end range to cover a touched slice.

        The range can grow at *both* ends.  Behind a sorting buffer only the
        top moves: it releases in event-time order, at or behind its
        frontier.  A watermark handler releases every element on arrival,
        ahead of its frontier, so an out-of-order (yet not late) element may
        touch a slice below the current range start.  Whatever gets
        scheduled is clamped to the first end above the close frontier:
        everything at or below it has closed, an unclamped rewind would make
        every late element cost a re-walk proportional to its lateness, and
        truly late elements never lower ``_next_end`` at all.  So closing
        twice at one frontier finds nothing the second time, which lets the
        batched driver skip steps where the frontier did not move.
        """
        first_end = slice_index + 1
        last_end = slice_index + self.span
        max_end_map = self._max_end
        max_end = max_end_map.get(key)
        if max_end is None:
            max_end_map[key] = max_end = last_end
            self._next_end[key] = first_end
        else:
            if last_end > max_end:
                max_end_map[key] = max_end = last_end
            elif first_end >= self._next_end[key]:
                # Late data inside the known range: every containing window
                # is either already pending or already closed.
                return
            next_end = self._next_end[key]
            if first_end < next_end and self._open_end(first_end) < next_end:
                # Any queued entry for this key now has a stale (too high)
                # priority; drop the guard so a fresh entry is pushed below.
                self._scheduled.discard(key)
                self._next_end[key] = first_end
        if key not in self._scheduled:
            # A new, rewound or idle key: skip the ends that closed meanwhile.
            self._next_end[key] = next_end = self._open_end(self._next_end[key])
            if next_end <= max_end:
                bucket = self._buckets[next_end]
                if not bucket:
                    heapq.heappush(self._ends, next_end)
                bucket.append(key)
                self._scheduled.add(key)

    def _open_end(self, end_index: int) -> int:
        """``end_index``, or the first end above the close frontier if later."""
        close_frontier = self.close_frontier
        slide = self.tree.slide
        if end_index * slide > close_frontier:
            return end_index
        if close_frontier == math.inf:
            return sys.maxsize  # finished: no end of any key is open any more
        floor = int(close_frontier / slide)
        while floor * slide <= close_frontier:
            floor += 1
        return floor

    def close(
        self, frontier: EventTimeStamp, emit_time: ArrivalTimeStamp, flushed: bool
    ) -> list[WindowResult]:
        """Emit every window with ``end <= frontier`` not yet closed.

        Ends close in ascending order, the keys filed under one end in
        filing order.  The stale copy a rewind left in a key's old bucket
        is dropped once the key's next end is past that bucket.
        """
        ends = self._ends
        tree = self.tree
        slide = tree.slide
        if not ends or ends[0] * slide > frontier:
            if frontier > self.close_frontier:
                self.close_frontier = frontier
            return []
        if self._groups:
            self.flush()
        tree.sim_time = emit_time
        tree.flush_touched()
        aggregate = tree.aggregate
        merge = aggregate.merge
        slices = tree._slices
        size = self.size
        span = self.span
        track = self.track_feedback
        tracer = tree.tracer
        dirty_to = self._dirty_to
        folds = self._folds
        buckets = self._buckets
        results: list[WindowResult] = []
        # One (frozen) Window per distinct end, shared by every key closing there.
        windows: dict[int, Window] = {}
        emitted: list[tuple[float, object, Any]] = []
        while ends and ends[0] * slide <= frontier:
            due_index = heapq.heappop(ends)
            for key in buckets.pop(due_index):
                next_end = self._next_end[key]
                if due_index < next_end:
                    continue  # a stale copy left behind by a rewind
                max_end = self._max_end[key]
                dirty = dirty_to.get(key, -1)
                fold = folds.get(key)
                while next_end <= max_end:
                    end = next_end * slide
                    if end > frontier:
                        break
                    end_index = next_end
                    next_end += 1
                    start = end - size
                    if start < 0:
                        continue
                    lo = end_index - span
                    if lo <= dirty:
                        # Late data reached the window (or rounding put its
                        # first slice below 0): the fold may be stale here.
                        accumulator, count = tree.assemble(
                            key, lo if lo > 0 else 0, end_index
                        )
                    else:
                        # In order: merge(suffix[lo], prefix of the next block).
                        if fold is None or not 0 <= lo - fold.base < span:
                            fold = self._fold_block(key, lo)
                        for index in range(fold.prefix_to, end_index):
                            row = slices.get(index)
                            leaf = None if row is None else row.get(key)
                            if leaf is not None and leaf[1]:
                                if fold.prefix is None:
                                    fold.prefix = aggregate.create()
                                merge(fold.prefix, leaf[0])
                                fold.prefix_count += leaf[1]
                        fold.prefix_to = end_index
                        accumulator, count = fold.suffix[lo - fold.base]
                        if fold.prefix_count:
                            if accumulator is None:
                                accumulator = aggregate.create()
                            merge(accumulator, fold.prefix)
                            count += fold.prefix_count
                    if count == 0:
                        continue
                    value = aggregate.result(accumulator)
                    window = windows.get(end_index)
                    if window is None:
                        window = windows[end_index] = Window(start, end)
                    _emit(results, tracer, key, window, value, count, emit_time, flushed)
                    if track:
                        emitted.append((end, key, value))
                self._next_end[key] = next_end
                if 0 <= dirty < next_end - span:
                    # Every window still to close starts past the mark; what
                    # the fold keeps covers later slices only, or is rebuilt.
                    del dirty_to[key]
                if next_end <= max_end:
                    # next_end is past the frontier: never this call's bucket.
                    bucket = buckets[next_end]
                    if not bucket:
                        heapq.heappush(ends, next_end)
                    bucket.append(key)
                else:
                    # Idle until a new slice arrives: nothing left to fold.
                    self._scheduled.discard(key)
                    folds.pop(key, None)
                    fold = None  # not held until the call returns
        # The queue stays in (end, emission order): note_slice clamps every
        # scheduled end above close_frontier and this call emits only ends
        # <= frontier, so each end here exceeds every earlier call's; inside
        # the call, keys interleave only when it closed several ends (a
        # frontier jump, finish) — a stable sort by end.
        if len(windows) > 1:
            emitted.sort(key=itemgetter(0))
        self._retiring.extend(emitted)
        if frontier > self.close_frontier:
            self.close_frontier = frontier
        self.stats.results_out += len(results)
        return results

    def _fold_block(self, key: object, lo: int) -> _BlockFold:
        """The key's in-order fold for the block holding slice ``lo``.

        The suffixes of the block from ``lo`` on, right to left from the
        leaves (``suffix[j] = create + slice[j] + suffix[j + 1]``); the
        window starting at ``j`` consumes ``suffix[j]`` in place, merged
        with the prefix :meth:`close` extends.  Values depend on the leaf
        slices and ``lo`` alone.  Never used at or below the dirty mark.
        """
        aggregate = self.tree.aggregate
        slices = self.tree._slices
        fold = self._folds[key] = _BlockFold(lo - lo % self.span, self.span)
        accumulator = None
        count = 0
        for index in range(fold.prefix_to - 1, lo - 1, -1):
            row = slices.get(index)
            leaf = None if row is None else row.get(key)
            if leaf is not None and leaf[1]:
                partial = aggregate.create()
                aggregate.merge(partial, leaf[0])
                if count:
                    aggregate.merge(partial, accumulator)
                accumulator = partial
                count += leaf[1]
            elif count:
                # An empty slice: its own copy, consumed on its own.
                partial = aggregate.create()
                aggregate.merge(partial, accumulator)
                accumulator = partial
            fold.suffix[index - fold.base] = (accumulator, count)
        return fold

    def retire(
        self,
        frontier: EventTimeStamp,
        now: ArrivalTimeStamp,
        observe_error: Callable[[float], None],
    ) -> None:
        """Score emitted-vs-corrected error for windows leaving the feedback
        horizon, then collect the slices and nodes no remaining window can
        read.

        Only windows that were emitted are scored (a window that closed
        empty left nothing to compare against).  A window no late element
        reached (no mark in its slice range) retires with the value it
        emitted: re-assembling unchanged slices would rebuild that value
        bit for bit, and a plain float scores 0.0 against itself without
        the call.  Corrections of the others reuse the tree: the
        patched partials above late slices serve every correction in
        O(log) instead of a fresh merge chain.
        """
        tree = self.tree
        retiring = self._retiring
        retire_before = frontier - self.feedback_horizon
        gc_before = frontier - self._gc_horizon
        due = bool(retiring) and retiring[0][0] <= retire_before
        if not due and not tree.gc_due(gc_before):
            return
        if self._groups:
            self.flush()
        tree.sim_time = now
        if due:
            tree.flush_touched()
        aggregate = tree.aggregate
        slide = tree.slide
        span = self.span
        tracer = tree.tracer
        tracing = tracer.enabled
        late = self._late
        while retiring and retiring[0][0] <= retire_before:
            end, key, emitted = retiring.popleft()
            corrected = emitted
            marks = late.get(key)
            if marks is not None:
                end_index = int(round(end / slide))
                lo = end_index - span
                # A key's windows retire in end order, so the marks below
                # this window's range are below every later one's too.
                del marks[: bisect_left(marks, lo)]
                if not marks:
                    del late[key]
                elif marks[0] < end_index:
                    accumulator, count = tree.assemble(
                        key, lo if lo > 0 else 0, end_index
                    )
                    corrected = (
                        aggregate.result(accumulator) if count else math.nan
                    )
            if corrected is emitted and type(emitted) is float:
                error = 0.0  # relative_error(x, x) of any plain float
            else:
                error = relative_error(emitted, corrected)
            self.stats.observed_errors.append(error)
            if tracing:
                # No per-window late counter is kept here: late_updates=None.
                tracer.emit(
                    "window.retire", tree.sim_time, key=key, start=end - self.size,
                    end=end, emitted=emitted, corrected=corrected, error=error,
                    late_updates=None,
                )
            observe_error(error)
        tree.gc(gc_before)

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach the tracer that window and tree records go to."""
        self.tree.tracer = tracer

    def stage(self, element: StreamElement, now: ArrivalTimeStamp) -> None:
        """Take one released element: its value folds into its slice when a
        close or a retirement reads the slices (:meth:`flush`).

        The values wait on the slice entry.  The lateness verdict is taken
        once per group: the frontier cannot pass one of the slice's open
        windows without a close, which folds.
        """
        tree = self.tree
        # The slice holding the event time: a floor guarded against rounding.
        timestamp = element.event_time
        slide = tree.slide
        slice_index = math.floor(timestamp / slide)
        while slice_index * slide > timestamp:
            slice_index -= 1
        while (slice_index + 1) * slide <= timestamp:
            slice_index += 1
        key = element.key
        row = tree._slices.get(slice_index)
        if row is None:
            row = tree._slices[slice_index] = {}
            heapq.heappush(tree._slice_gc, slice_index)
        entry = row.get(key)
        if entry is None:
            entry = row[key] = [tree.aggregate.create(), 0, None, 0]
        staged = entry[2]
        if staged is None:
            tree.touch(key, slice_index)
            self.note_slice(key, slice_index)
            entry[3] = self.late_verdict(key, slice_index)
            entry[2] = staged = []
            self._groups.append(entry)
        staged.append(element.value)
        if entry[3]:
            self.stats.late_dropped += entry[3]
        if len(staged) >= STAGED_FOLD_LIMIT:
            self.flush()

    def flush(self) -> None:
        """Fold every staged value into its slice accumulator."""
        add_many = self.tree.aggregate.add_many
        for entry in self._groups:
            values = entry[2]
            add_many(entry[0], values)
            entry[1] += len(values)
            entry[2] = None
        self._groups.clear()
