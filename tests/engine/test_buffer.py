"""Tests for the sorting buffer."""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.buffer import MERGE_RATIO, SortingBuffer
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import tumbling
from repro.errors import StreamOrderError
from repro.obs.trace import TraceRecorder
from repro.queries.language import ContinuousQuery
from repro.streams.element import StreamElement


def el(ts: float, seq: int = 0) -> StreamElement:
    return StreamElement(event_time=ts, value=ts, seq=seq)


class TestSortingBuffer:
    def test_empty(self):
        buffer = SortingBuffer()
        assert len(buffer) == 0
        assert buffer.peek_event_time() is None
        assert buffer.release_until(100.0) == []
        assert buffer.drain() == []

    def test_release_until_threshold_inclusive(self):
        buffer = SortingBuffer()
        for ts in (3.0, 1.0, 2.0):
            buffer.push(el(ts))
        released = buffer.release_until(2.0)
        assert [e.event_time for e in released] == [1.0, 2.0]
        assert len(buffer) == 1

    def test_release_in_event_time_order(self):
        buffer = SortingBuffer()
        for ts in (5.0, 1.0, 4.0, 2.0, 3.0):
            buffer.push(el(ts))
        released = buffer.release_until(10.0)
        assert [e.event_time for e in released] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ties_broken_by_seq(self):
        buffer = SortingBuffer()
        buffer.push(el(1.0, seq=2))
        buffer.push(el(1.0, seq=1))
        released = buffer.release_until(1.0)
        assert [e.seq for e in released] == [1, 2]

    def test_peek(self):
        buffer = SortingBuffer()
        buffer.push(el(5.0))
        buffer.push(el(2.0))
        assert buffer.peek_event_time() == 2.0

    def test_drain(self):
        buffer = SortingBuffer()
        for ts in (3.0, 1.0, 2.0):
            buffer.push(el(ts))
        assert [e.event_time for e in buffer.drain()] == [1.0, 2.0, 3.0]
        assert len(buffer) == 0

    def test_max_size_high_water_mark(self):
        buffer = SortingBuffer()
        for ts in (1.0, 2.0, 3.0):
            buffer.push(el(ts))
        buffer.release_until(10.0)
        buffer.push(el(4.0))
        assert buffer.max_size == 3

    def test_interleaved_push_release(self):
        buffer = SortingBuffer()
        buffer.push(el(1.0))
        buffer.push(el(3.0))
        assert [e.event_time for e in buffer.release_until(1.5)] == [1.0]
        buffer.push(el(2.0))  # late insert below current content
        assert [e.event_time for e in buffer.release_until(3.0)] == [2.0, 3.0]


class TestBulkBufferAPIs:
    def test_push_many_matches_push(self):
        import random

        rng = random.Random(5)
        timestamps = [rng.uniform(0, 100) for _ in range(500)]
        one = SortingBuffer()
        for seq, ts in enumerate(timestamps):
            one.push(el(ts, seq=seq))
        bulk = SortingBuffer()
        bulk.push_many([el(ts, seq=seq) for seq, ts in enumerate(timestamps)])
        assert [
            (e.event_time, e.seq) for e in one.release_until(200.0)
        ] == [(e.event_time, e.seq) for e in bulk.release_until(200.0)]

    def test_push_many_incremental_chunks(self):
        # 37 is large against the buffer it meets (merged by one sort), 3 is
        # small once the buffer has grown (inserted one by one).
        for size in (37, 3):
            self.check_incremental_chunks(size)

    def check_incremental_chunks(self, size):
        import random

        rng = random.Random(6)
        timestamps = [rng.uniform(0, 100) for _ in range(400)]
        one = SortingBuffer()
        bulk = SortingBuffer()
        both = SortingBuffer()
        held = []
        merged, inserted = [], []
        for start in range(0, len(timestamps), size):
            chunk = timestamps[start : start + size]
            for seq, ts in enumerate(chunk, start):
                one.push(el(ts, seq=seq))
            elements = [el(ts, seq=seq) for seq, ts in enumerate(chunk, start)]
            bulk.push_many(elements)
            threshold = max(chunk) - 20.0
            # The part of a chunk at or below everything held meets runs
            # that hold at most ``len(both)`` elements and at least those at
            # or above its minimum.
            below = [time for time in chunk if held and time <= max(held)]
            if below:
                merged.append(len(both) <= MERGE_RATIO * len(below))
                reached = sum(time >= min(below) for time in held)
                inserted.append(reached > MERGE_RATIO * len(below))
            held = [time for time in held + chunk if time > threshold]
            expected = [(e.event_time, e.seq) for e in one.release_until(threshold)]
            assert expected == [
                (e.event_time, e.seq) for e in bulk.release_until(threshold)
            ]
            assert expected == [
                (e.event_time, e.seq) for e in both.push_release(elements, threshold)
            ]
            assert both.released_total == one.released_total
            assert both.max_size == one.max_size
            assert len(both) == len(one)
        # Both sides of the size rule were taken: 10 of the 11 chunks of 37
        # merged (the first is appended); of the 134 chunks of 3, 8 merged
        # and 125 inserted.
        if size == 37:
            assert len(merged) == 10 and all(merged)
        else:
            assert any(merged) and any(inserted)
        rest = [(e.event_time, e.seq) for e in one.drain()]
        assert rest == [(e.event_time, e.seq) for e in bulk.drain()]
        # What ``push_release`` left takes scalar pushes and releases.
        both.push(el(0.0, seq=1000))
        assert [(e.event_time, e.seq) for e in both.drain()] == [(0.0, 1000), *rest]

    def test_sort_and_split_large_release(self):
        # Releasing most of a large buffer cuts whole runs, then slices one;
        # order and remainder must match per-element semantics.
        buffer = SortingBuffer()
        buffer.push_many([el(float(ts), seq=ts) for ts in range(1000, 0, -1)])
        released = buffer.release_until(900.0)
        assert [e.event_time for e in released] == [float(t) for t in range(1, 901)]
        assert len(buffer) == 100
        assert buffer.peek_event_time() == 901.0
        # The remainder must still serve scalar releases.
        assert [e.event_time for e in buffer.release_until(902.0)] == [901.0, 902.0]

    def test_released_total(self):
        buffer = SortingBuffer()
        assert buffer.released_total == 0
        buffer.push_many([el(1.0), el(2.0), el(3.0)])
        buffer.release_until(2.0)
        assert buffer.released_total == 2
        buffer.drain()
        assert buffer.released_total == 3

    def test_push_many_empty(self):
        buffer = SortingBuffer()
        buffer.push_many([])
        assert len(buffer) == 0
        assert buffer.released_total == 0


#: Event times on a coarse grid, so that most ties are broken by ``seq``.
GRID = st.integers(0, 24).map(lambda step: step * 0.5)

#: Where a step's threshold lies: relative to the held minimum (or to the
#: arriving element when nothing is held), at the element, at a drawn grid
#: time, or at the held elements' upper quartile (a release of most of a
#: large buffer cuts whole runs).
THRESHOLDS = ("-inf", "below-min", "at-min", "above-min", "element", "grid", "most")


def resolve_threshold(kind, held, element, grid_time):
    times = sorted(e.event_time for e in held)
    floor = times[0] if times else element.event_time
    return {
        "-inf": float("-inf"),
        "below-min": floor - 0.25,
        "at-min": floor,
        "above-min": floor + 0.25,
        "element": element.event_time,
        "grid": grid_time,
        "most": times[(3 * len(times)) // 4] if times else element.event_time,
    }[kind]


def trace_records(recorder):
    return [(event.kind, event.sim_time, event.fields) for event in recorder.events]


#: One step of a buffer script: the operation, then what it draws.
OPERATIONS = ("push", "push_release_one", "push_many", "push_release", "release_until", "drain")


@st.composite
def operation_scripts(draw):
    """A held start (pushed one by one or as one chunk), then operations."""
    size = draw(st.sampled_from([0, 3, 60, 1500, 3000]))
    start = draw(st.lists(GRID, min_size=min(size, 60), max_size=min(size, 60)))
    start *= max(1, size // 60)  # Past ``RUN_LENGTH``: runs split and ties span runs.
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPERATIONS),
                st.lists(GRID, min_size=1, max_size=24),
                st.sampled_from(THRESHOLDS),
                GRID,
                # How many of the step's elements are field-equal copies of
                # held ones (at most the held count), drawn by position.
                st.lists(st.integers(0, 10**6), max_size=3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return start, draw(st.booleans()), steps


def _copy(element):
    return StreamElement(
        event_time=element.event_time, value=element.value, key=element.key,
        arrival_time=element.arrival_time, seq=element.seq,
    )


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operation_scripts())
def test_buffer_matches_a_sorted_list_model(script):
    """Every verb against a list sorted by ``event_sort_key``; the fused
    verbs against their two-call spelling, trace records included."""
    start, as_chunk, steps = script
    buffer, twin = SortingBuffer(), SortingBuffer()
    buffer.tracer, twin.tracer = TraceRecorder(detail=True), TraceRecorder(detail=True)
    seqs = itertools.count()
    model, peak, released_total = [], 0, 0

    def release(threshold):
        nonlocal model, released_total
        ordered = sorted(model, key=StreamElement.event_sort_key)
        due = [e for e in ordered if e.event_time <= threshold]
        model = ordered[len(due):]
        released_total += len(due)
        return due

    def same(released, expected):
        assert [id(e) for e in released] == [id(e) for e in expected]

    elements = [el(time, seq=next(seqs)) for time in start]
    if as_chunk:
        buffer.push_many(elements)
        twin.push_many(elements)
    else:
        for element in elements:
            buffer.push(element)
            twin.push(element)
    model, peak = list(elements), len(elements)
    for operation, times, kind, grid_time, copies in steps:
        elements = [el(time, seq=next(seqs)) for time in times]
        for slot in copies[: len(model)]:
            elements[slot % len(elements)] = _copy(model[slot % len(model)])
        threshold = resolve_threshold(kind, model, elements[0], grid_time)
        if operation in ("push", "push_release_one"):
            element = elements[0]
            model.append(element)
            peak = max(peak, len(model))
            if operation == "push":
                buffer.push(element)
                twin.push(element)
            else:
                twin.push(element)
                expected = release(threshold)
                same(twin.release_until(threshold), expected)
                same(buffer.push_release_one(element, threshold), expected)
        elif operation in ("push_many", "push_release"):
            model += elements
            peak = max(peak, len(model))
            twin.push_many(elements)
            if operation == "push_many":
                buffer.push_many(elements)
            else:
                expected = release(threshold)
                same(twin.release_until(threshold), expected)
                same(buffer.push_release(elements, threshold), expected)
        elif operation == "release_until":
            expected = release(threshold)
            same(twin.release_until(threshold), expected)
            same(buffer.release_until(threshold), expected)
        else:
            expected = release(float("inf"))
            same(twin.drain(), expected)
            same(buffer.drain(), expected)
        for checked in (buffer, twin):
            assert len(checked) == len(model)
            assert checked.max_size == peak
            assert checked.released_total == released_total
            assert checked.peek_event_time() == min(
                (e.event_time for e in model), default=None
            )
    same(buffer.drain(), release(float("inf")))
    assert trace_records(buffer.tracer) == trace_records(twin.tracer)


@pytest.mark.parametrize("chunk", [1, 512])
def test_a_held_element_costs_at_most_32_bytes(chunk):
    """The buffer's own allocations per held element, elements excluded.

    A ``(event_time, seq, element)`` tuple and a heap slot came to about
    73 B; two list slots and the lists' slack stay well under 32 B.
    """
    rng = random.Random(11)
    count = 20_000
    elements = [el(i * 0.01 + rng.uniform(0.0, 5.0), seq=i) for i in range(count)]
    buffer = SortingBuffer()
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        if chunk == 1:
            for element in elements:
                buffer.push(element)
        else:
            for start in range(0, count, chunk):
                buffer.push_many(elements[start : start + chunk])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buffer) == count
    assert (held - base) / count <= 32
    assert [e.seq for e in buffer.drain()] == [
        e.seq for e in sorted(elements, key=StreamElement.event_sort_key)
    ]


@pytest.mark.parametrize("batch_size", [0, 16])
def test_duplicate_seq_is_a_typed_error_not_a_heap_type_error(batch_size):
    """Two sensors reporting at one instant with hand-built (seq-less) elements."""

    def run(second_value):
        stream = [
            StreamElement(event_time=1.0, value=1.0, arrival_time=1.0, seq=0),
            StreamElement(event_time=1.0, value=second_value, arrival_time=1.0, seq=0),
            StreamElement(event_time=5.0, value=3.0, arrival_time=5.0, seq=1),
        ]
        query = ContinuousQuery().window(tumbling(2.0)).aggregate("sum").with_slack(1.0)
        return run_pipeline(stream, query.build_operator(), batch_size=batch_size)

    with pytest.raises(StreamOrderError, match="unique seq"):
        run(second_value=2.0)
    # A field-equal copy of the first element ties without being asked.
    assert [r.value for r in run(second_value=1.0).results] == [2.0, 3.0]
