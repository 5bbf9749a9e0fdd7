"""Reordering buffers used by buffer-based disorder handling.

A :class:`SortingBuffer` holds elements in a min-heap keyed by event time and
releases, on demand, every element at or below a threshold — turning an
arrival-ordered stream back into an event-time-ordered one up to the chosen
slack.

The buffer exposes both scalar (``push``/``release_until`` one at a time) and
bulk (``push_many``, ``push_release``, sort-and-split releases) entry points.
The bulk paths exist for the batched execution layer: pushing a chunk
re-heapifies once instead of sifting per element (or, when most of it leaves
again at once, is pushed and released with one sort), and a release that would pop a large fraction
of the heap switches from per-element ``heappop`` (O(m log n)) to sorting the
backing list and splitting it (O(n log n) with C-speed constants — faster in
practice once m is a sizeable share of n).  A sorted list is a valid min-heap,
so the remainder needs no re-heapify.
"""

from __future__ import annotations

import heapq

from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement


class SortingBuffer:
    """Min-heap of stream elements ordered by (event_time, seq).

    When a :class:`~repro.obs.trace.Tracer` is attached (handlers propagate
    theirs via ``set_tracer``), pushes, releases and the end-of-stream drain
    emit ``buffer.*`` trace records.  Buffer records are stamped with the
    **event-time** threshold of the operation (the buffer sits below the
    arrival clock and never sees arrival timestamps); the trace schema
    documents this domain caveat.
    """

    __slots__ = ("tracer", "_heap", "_max_size", "_released_total", "_tail_key")

    def __init__(self) -> None:
        #: Attached tracer; the shared null tracer keeps the hot path at one
        #: attribute check when tracing is off.
        self.tracer: Tracer = NULL_TRACER
        self._heap: list[tuple[float, int, StreamElement]] = []
        self._max_size = 0
        self._released_total = 0
        # Upper bound on the largest sort key ever pushed.  A batch whose
        # keys ascend from at least this bound extends the heap tail without
        # re-heapifying (appending an ascending run above the current max
        # keeps the heap invariant).  Never lowered on release: a released
        # key was <= some pushed key, so the bound stays valid.
        self._tail_key: tuple[float, int] = (float("-inf"), -(2**62))

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def max_size(self) -> int:
        """High-water mark of buffered elements (memory proxy)."""
        return self._max_size

    @property
    def released_total(self) -> int:
        """Cumulative count of elements released (``release_until``/``drain``)."""
        return self._released_total

    def push(self, element: StreamElement) -> None:
        """Insert one element (any event time, including below released)."""
        key = (element.event_time, element.seq)
        if key > self._tail_key:
            self._tail_key = key
        heapq.heappush(self._heap, (element.event_time, element.seq, element))
        if len(self._heap) > self._max_size:
            self._max_size = len(self._heap)
        if self.tracer.enabled:
            self.tracer.buffer_push(element.event_time, 1, len(self._heap))

    def push_many(self, elements: list[StreamElement]) -> None:
        """Insert a batch of elements.

        A batch that is already in event-time order and starts at or above
        every key pushed so far — the common shape during low-disorder
        phases — extends the heap tail directly: no re-heapify, no sift-ups.
        Otherwise, batches large relative to the heap extend the backing
        list and re-heapify once (O(n + m), beats m sift-ups); small ones
        sift per element.
        """
        if not elements:
            return
        heap = self._heap
        entries = [(element.event_time, element.seq, element) for element in elements]
        first_key = (entries[0][0], entries[0][1])
        if first_key >= self._tail_key and all(
            entries[i][:2] <= entries[i + 1][:2] for i in range(len(entries) - 1)
        ):
            heap.extend(entries)
            batch_max = (entries[-1][0], entries[-1][1])
        else:
            if len(entries) * 8 > len(heap):
                heap.extend(entries)
                heapq.heapify(heap)
            else:
                push = heapq.heappush
                for entry in entries:
                    push(heap, entry)
            batch_max = max(entry[:2] for entry in entries)
        if batch_max > self._tail_key:
            self._tail_key = batch_max
        if len(heap) > self._max_size:
            self._max_size = len(heap)
        if elements and self.tracer.enabled:
            self.tracer.buffer_push(
                elements[-1].event_time, len(elements), len(heap)
            )

    def push_release(
        self, elements: list[StreamElement], threshold: float
    ) -> list[StreamElement]:
        """:meth:`push_many` then :meth:`release_until`, for one chunk.

        A batch large relative to the heap (:meth:`push_many`'s ``* 8``
        rule) is pushed and released with one sort of the backing list — a
        sorted list is a valid heap, also once a prefix is cut off — which
        beats a heapify, a run of pops and the fallback sort.  A small one
        must not pay O(heap) per chunk and takes the two calls.  Same
        counters and trace records either way.
        """
        heap = self._heap
        if len(elements) * 8 <= len(heap):
            self.push_many(elements)
            return self.release_until(threshold)
        heap.extend([(element.event_time, element.seq, element) for element in elements])
        if len(heap) > self._max_size:
            self._max_size = len(heap)
        tracer = self.tracer
        if tracer.enabled:
            tracer.buffer_push(elements[-1].event_time, len(elements), len(heap))
        heap.sort()
        if heap[-1][:2] > self._tail_key:
            self._tail_key = heap[-1][:2]
        split = self._split_index(threshold)
        released = [entry[2] for entry in heap[:split]]
        del heap[:split]
        self._released_total += split
        if split and tracer.enabled:
            tracer.buffer_release(threshold, split, len(heap))
        return released

    def peek_event_time(self) -> float | None:
        """Event time of the oldest buffered element, or ``None`` if empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def release_until(self, threshold: float) -> list[StreamElement]:
        """Pop every element with ``event_time <= threshold``, in order.

        Small releases use per-element ``heappop``; once a release turns out
        to cover a large fraction of the heap, the remainder is sorted and
        split instead (the sorted tail stays a valid heap).
        """
        heap = self._heap
        released: list[StreamElement] = []
        if not heap or heap[0][0] > threshold:
            return released
        append = released.append
        pop = heapq.heappop
        pop_budget = max(16, len(heap) // 4)
        while heap and heap[0][0] <= threshold:
            append(pop(heap)[2])
            pop_budget -= 1
            if pop_budget == 0 and heap and heap[0][0] <= threshold:
                heap.sort()
                split = self._split_index(threshold)
                released.extend(entry[2] for entry in heap[:split])
                del heap[:split]
                break
        self._released_total += len(released)
        if released and self.tracer.enabled:
            self.tracer.buffer_release(threshold, len(released), len(heap))
        return released

    def _split_index(self, threshold: float) -> int:
        """First index in the (sorted) backing list with event time > threshold."""
        heap = self._heap
        lo, hi = 0, len(heap)
        while lo < hi:
            mid = (lo + hi) // 2
            if heap[mid][0] <= threshold:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def drain(self) -> list[StreamElement]:
        """Pop everything, in event-time order."""
        heap = self._heap
        heap.sort()
        released = [entry[2] for entry in heap]
        heap.clear()
        self._released_total += len(released)
        if released and self.tracer.enabled:
            self.tracer.buffer_flush(released[-1].event_time, len(released))
        return released
