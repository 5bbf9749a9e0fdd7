"""Reordering buffer used by buffer-based disorder handling.

A :class:`SortingBuffer` holds elements in ``(event_time, seq)`` order and
releases, on demand, every element at or below a threshold — turning an
arrival-ordered stream back into an event-time-ordered one up to the chosen
slack.

The elements sit in *sorted runs*: consecutive stretches of that order,
each kept as two parallel lists — the elements' own ``event_time`` floats
and the elements themselves — beside one list of every run's last event
time.  Holding an element costs its two list slots; no tuple is made for
it.  A run that grows past :data:`RUN_LENGTH` splits in half, so one
insert moves at most that many slots.

The per-arrival path of a K-slack handler is ``push_release_one``: an
arrival that is due while nothing buffered is leaves without entering the
buffer, one that releases nothing skips the release, and any other is
placed with one bisect over the run lasts and one in its run.  A release
(``release_until``) cuts whole runs and slices the first run left.  A chunk
(``push_many``, ``push_release``) is sorted once: its part above
everything held becomes new runs, the rest is merged with the runs from
the first one whose last event time reaches that part's minimum — by one
sort of those runs and that part, or, when they outnumber it by more than
:data:`MERGE_RATIO`, by inserting its elements one by one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import attrgetter, ge

from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement

#: Most elements one run holds; a run that grows past it splits in half.
RUN_LENGTH = 1024

#: A chunk's part at or below the last held event time is merged by one sort with
#: the runs it reaches unless those hold more than this many elements per
#: element of that part; then its elements are inserted one by one, so a
#: small part never pays for a large buffer.
MERGE_RATIO = 4

_TIME = attrgetter("event_time")
_SEQ = attrgetter("seq")


def _tie(element: StreamElement, held: StreamElement) -> None:
    """Order two elements that tie on ``(event_time, seq)``.

    A field-equal copy ties silently and goes after the one held.  Two
    distinct elements have no deterministic order: comparing them raises
    :class:`~repro.errors.StreamOrderError` (``StreamElement.__lt__``), as
    sorting their ``(event_time, seq, element)`` tuples does.
    """
    if element != held:
        element.__lt__(held)


def _in_order(elements: list[StreamElement]) -> tuple[list[float], list[StreamElement]]:
    """``elements`` in ``(event_time, seq)`` order, with their event times.

    Sorts keyed by event time, so held runs merge without a tuple per
    element.  Where two event times tie it sorts ``(event_time, seq,
    element)`` tuples instead, which compares two elements only as
    :func:`_tie` does."""
    items = sorted(elements, key=_TIME)
    times = list(map(_TIME, items))
    if any(map(ge, times, islice(times, 1, None))):
        items = [entry[2] for entry in sorted(zip(times, map(_SEQ, items), items))]
    return times, items


class SortingBuffer:
    """Stream elements in ``(event_time, seq)`` order, held as sorted runs.

    When a :class:`~repro.obs.trace.Tracer` is attached (handlers propagate
    theirs via ``set_tracer``), pushes and releases emit ``buffer.*`` trace
    records.  Buffer records are stamped with the **event-time** threshold
    of the operation (the buffer sits below the arrival clock and never
    sees arrival timestamps); the trace schema documents this domain
    caveat.
    """

    __slots__ = (
        "tracer", "_times", "_items", "_lasts", "_size", "_max_size", "_released_total",
    )

    def __init__(self) -> None:
        #: Attached tracer; the shared null tracer keeps the hot path at one
        #: attribute check when tracing is off.
        self.tracer: Tracer = NULL_TRACER
        # Run ``r`` holds ``_items[r]`` with their event times ``_times[r]``
        # (the elements' own floats); every run is non-empty, at most
        # ``RUN_LENGTH`` long, and the runs concatenate in order.
        self._times: list[list[float]] = []
        self._items: list[list[StreamElement]] = []
        # ``_lasts[r] == _times[r][-1]``: the bisect index over the runs.
        self._lasts: list[float] = []
        self._size = 0
        self._max_size = 0
        self._released_total = 0

    def __len__(self) -> int:
        return self._size

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
        self._insert(element)
        self._size += 1
        if self._size > self._max_size:
            self._max_size = self._size
        if self.tracer.enabled and self.tracer.detail:
            self.tracer.emit(
                "buffer.push", element.event_time, count=1, buffered=self._size
            )

    def push_release_one(
        self, element: StreamElement, threshold: float
    ) -> list[StreamElement]:
        """:meth:`push` then :meth:`release_until`, for one arrival.

        A due element (``event_time <= threshold``) that is due alone —
        the buffer is empty or its minimum lies above ``threshold`` — is
        returned without entering the buffer: inserting it at the front
        and cutting it off again would restore the runs exactly.  After an
        insert that leaves the minimum above ``threshold`` nothing can be
        due, so the release is skipped.  Same counters (including the
        momentary ``len + 1`` high-water mark) and trace records as the two
        calls.
        """
        event_time = element.event_time
        runs, lasts = self._times, self._lasts
        size = self._size + 1
        if size > self._max_size:
            self._max_size = size
        tracer = self.tracer
        if event_time <= threshold and (not runs or runs[0][0] > threshold):
            self._released_total += 1
            if tracer.enabled:
                if tracer.detail:
                    tracer.emit("buffer.push", event_time, count=1, buffered=size)
                tracer.emit("buffer.release", threshold, count=1, buffered=size - 1)
            return [element]
        self._size = size
        # :meth:`_insert`, inlined: this runs once per scalar arrival.
        if not runs or event_time > lasts[-1]:
            if runs and len(runs[-1]) < RUN_LENGTH:
                runs[-1].append(event_time)
                self._items[-1].append(element)
                lasts[-1] = event_time
            else:
                runs.append([event_time])
                self._items.append([element])
                lasts.append(event_time)
        else:
            run = bisect_left(lasts, event_time)
            times = runs[run]
            slot = bisect_left(times, event_time)
            if times[slot] > event_time:
                times.insert(slot, event_time)
                self._items[run].insert(slot, element)
                if len(times) > RUN_LENGTH:
                    self._split(run)
            else:
                self._insert_tie(element, run, slot)
        if tracer.enabled and tracer.detail:
            tracer.emit("buffer.push", event_time, count=1, buffered=size)
        if runs[0][0] > threshold:
            return []
        return self.release_until(threshold)

    def _insert(self, element: StreamElement) -> None:
        """Place one element; counters and trace records are the caller's."""
        event_time = element.event_time
        lasts = self._lasts
        if not lasts or event_time > lasts[-1]:
            if lasts and len(self._times[-1]) < RUN_LENGTH:
                self._times[-1].append(event_time)
                self._items[-1].append(element)
                lasts[-1] = event_time
            else:
                self._times.append([event_time])
                self._items.append([element])
                lasts.append(event_time)
            return
        run = bisect_left(lasts, event_time)
        times = self._times[run]
        slot = bisect_left(times, event_time)
        if times[slot] > event_time:
            times.insert(slot, event_time)
            self._items[run].insert(slot, element)
            if len(times) > RUN_LENGTH:
                self._split(run)
        else:
            self._insert_tie(element, run, slot)

    def _insert_tie(self, element: StreamElement, run: int, slot: int) -> None:
        """Place ``element`` among the held elements of its event time.

        The first of them is at ``slot`` of ``run``; they may go on into
        the following runs.  ``element`` goes before the first with a
        larger ``seq`` (see :func:`_tie` for an equal one).
        """
        event_time, seq = element.event_time, element.seq
        runs = self._times
        while True:
            times, items = runs[run], self._items[run]
            end = len(times)
            while slot < end and not times[slot] > event_time and items[slot].seq <= seq:
                if items[slot].seq == seq:
                    _tie(element, items[slot])
                slot += 1
            if slot < end or run + 1 == len(runs) or runs[run + 1][0] > event_time:
                break
            run, slot = run + 1, 0
        # Past the run's end only when its last element ties: ``_lasts`` holds.
        times.insert(slot, event_time)
        items.insert(slot, element)
        if len(times) > RUN_LENGTH:
            self._split(run)

    def _split(self, run: int) -> None:
        """Cut an overlong run in two halves."""
        times, items = self._times[run], self._items[run]
        half = len(times) // 2
        self._times.insert(run + 1, times[half:])
        self._items.insert(run + 1, items[half:])
        del times[half:], items[half:]
        self._lasts.insert(run, times[-1])

    def _extend(self, times: list[float], items: list[StreamElement]) -> None:
        """Append sorted elements that go after everything held.

        The last run is filled up first, the rest becomes new runs.
        """
        runs, lasts = self._times, self._lasts
        start = RUN_LENGTH - len(runs[-1]) if runs else 0
        if start > 0:
            runs[-1] += times[:start]
            self._items[-1] += items[:start]
            lasts[-1] = runs[-1][-1]
        for cut in range(start, len(times), RUN_LENGTH):
            runs.append(times[cut : cut + RUN_LENGTH])
            self._items.append(items[cut : cut + RUN_LENGTH])
            lasts.append(runs[-1][-1])

    def push_many(self, elements: list[StreamElement]) -> None:
        """Insert a batch of elements.

        The batch is sorted once.  Its part above everything held — all of
        it during low-disorder phases — is appended as new runs.  The rest
        is merged with the runs from the first one that reaches its
        minimum: by one sort of those runs and that part, or one insert per
        element when those runs are large against it.
        """
        if not elements:
            return
        times, items = _in_order(elements)
        runs, lasts = self._times, self._lasts
        split = bisect_right(times, lasts[-1]) if runs else 0
        if split:
            run = bisect_left(lasts, times[0])
            if sum(map(len, runs[run:])) > MERGE_RATIO * split:
                insert = self._insert
                for element in items[:split]:
                    insert(element)
            else:
                held = list(chain.from_iterable(self._items[run:]))
                del runs[run:], self._items[run:], lasts[run:]
                self._extend(*_in_order(held + items[:split]))
            del times[:split], items[:split]
        if times:
            self._extend(times, items)
        self._size += len(elements)
        if self._size > self._max_size:
            self._max_size = self._size
        if self.tracer.enabled:
            self.tracer.emit(
                "buffer.push", elements[-1].event_time,
                count=len(elements), buffered=self._size,
            )

    def push_release(
        self, elements: list[StreamElement], threshold: float
    ) -> list[StreamElement]:
        """:meth:`push_many` then :meth:`release_until`, for one chunk."""
        self.push_many(elements)
        return self.release_until(threshold)

    def peek_event_time(self) -> float | None:
        """Event time of the oldest buffered element, or ``None`` if empty."""
        if not self._times:
            return None
        return self._times[0][0]

    def release_until(self, threshold: float) -> list[StreamElement]:
        """Remove and return every element with ``event_time <= threshold``, in order.

        Whole runs at or below ``threshold`` are cut off, then one bisect
        slices the first run left.
        """
        runs = self._times
        if not runs or runs[0][0] > threshold:
            return []
        done = bisect_right(self._lasts, threshold)
        released = list(chain.from_iterable(self._items[:done])) if done else []
        if done < len(runs):
            times, items = runs[done], self._items[done]
            cut = bisect_right(times, threshold)
            released += items[:cut]
            del times[:cut], items[:cut]
        del runs[:done], self._items[:done], self._lasts[:done]
        self._size -= len(released)
        self._released_total += len(released)
        if self.tracer.enabled:
            self.tracer.emit(
                "buffer.release", threshold, count=len(released), buffered=self._size
            )
        return released

    def drain(self) -> list[StreamElement]:
        """Remove and return everything, in event-time order."""
        released = list(chain.from_iterable(self._items))
        self._times.clear()
        self._items.clear()
        self._lasts.clear()
        self._size = 0
        self._released_total += len(released)
        return released
