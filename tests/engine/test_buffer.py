"""Tests for the sorting buffer."""

import pytest

from repro.engine.buffer import SortingBuffer
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import tumbling
from repro.errors import StreamOrderError
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
        # 37 is large against the heap it meets (``push_release`` sorts), 3 is
        # small once the heap has grown (``push_many`` + ``release_until``).
        for size in (37, 3):
            self.check_incremental_chunks(size)

    def check_incremental_chunks(self, size):
        import random

        rng = random.Random(6)
        timestamps = [rng.uniform(0, 100) for _ in range(400)]
        one = SortingBuffer()
        bulk = SortingBuffer()
        both = SortingBuffer()
        sorted_chunks = []
        for start in range(0, len(timestamps), size):
            chunk = timestamps[start : start + size]
            for seq, ts in enumerate(chunk, start):
                one.push(el(ts, seq=seq))
            elements = [el(ts, seq=seq) for seq, ts in enumerate(chunk, start)]
            bulk.push_many(elements)
            threshold = max(chunk) - 20.0
            sorted_chunks.append(len(elements) * 8 > len(both))
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
        # Both sides of the size rule were taken: all 11 chunks of 37, 31 of 134.
        assert all(sorted_chunks) if size == 37 else 0 < sum(sorted_chunks) < 40
        rest = [(e.event_time, e.seq) for e in one.drain()]
        assert rest == [(e.event_time, e.seq) for e in bulk.drain()]
        # What ``push_release`` left is a heap for scalar pushes and pops.
        both.push(el(0.0, seq=1000))
        assert [(e.event_time, e.seq) for e in both.drain()] == [(0.0, 1000), *rest]

    def test_sort_and_split_large_release(self):
        # Releasing most of a large buffer takes the sort-and-split path;
        # order and remainder must match per-element heap semantics.
        buffer = SortingBuffer()
        buffer.push_many([el(float(ts), seq=ts) for ts in range(1000, 0, -1)])
        released = buffer.release_until(900.0)
        assert [e.event_time for e in released] == [float(t) for t in range(1, 901)]
        assert len(buffer) == 100
        assert buffer.peek_event_time() == 901.0
        # The remainder must still be a valid heap for scalar pops.
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
