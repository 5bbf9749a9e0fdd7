"""Property tests: the order the sharded merge emits in.

The merge walks distinct window ends in ascending order and never sorts
by emit time (``repro.engine.parallel``): that is the canonical order
``(emit_time, flushed, end, start, repr(key), rank)`` only because a
merged window's emit time and flushed flag are nondecreasing in its end.
An incremental merge (ROADMAP item 2) leans on the same invariant — what
it emits at one minimum frontier must precede what it emits at the next —
so it is pinned here over every way routing spreads a group: by key, by
round-robin (``None`` keys) and by a custom key that splits every key.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import CountAggregate, SumAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.parallel import ShardedWindowOperator, stable_shard
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement

WINDOW_PARAMS = [(4.0, 1.0), (6.0, 3.0), (5.0, 5.0)]


def split_by_seq(element):
    return element.seq % 3


ROUTINGS = {
    "keyed": (st.sampled_from(["a", "b", "c", "d"]), None),
    "round-robin": (st.none(), None),
    "mixed": (st.sampled_from(["a", None, "b"]), None),
    "split": (st.sampled_from(["a", "b", "c"]), split_by_seq),
}


@st.composite
def gapped_streams(draw, keys):
    """Arrival-ordered streams with a hole in event time.

    Event times past ``gap_at`` are pushed ``gap`` seconds out, so the
    first element behind the hole moves a shard's frontier over several
    window ends in one step; delays up to 8 s against K = 1 s leave late
    elements, and whatever the last frontier did not reach is flushed.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
                st.integers(min_value=0, max_value=9).map(float),
                keys,
            ),
            min_size=1,
            max_size=60,
        )
    )
    gap_at = draw(st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
    gap = draw(st.sampled_from([0.0, 7.5, 30.0]))
    elements = [
        StreamElement(
            event_time=ts + (gap if ts > gap_at else 0.0),
            value=value,
            arrival_time=ts + (gap if ts > gap_at else 0.0) + delay,
            key=key,
            seq=seq,
        )
        for seq, (ts, delay, value, key) in enumerate(sorted(rows, key=lambda r: r[:3]))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


@given(
    st.sampled_from(sorted(ROUTINGS)).flatmap(
        lambda name: st.tuples(st.just(name), gapped_streams(ROUTINGS[name][0]))
    ),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(["naive", "tree"]),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_merged_results_are_ordered_by_window_end(routed, window_params, n_shards, mode):
    routing, stream = routed
    operator = ShardedWindowOperator(
        n_shards,
        SlidingWindowAssigner(*window_params),
        SumAggregate(),
        lambda: KSlackHandler(1.0),
        mode=mode,
        key_fn=ROUTINGS[routing][1],
    )
    results = run_pipeline(stream, operator).results

    by_end = [(r.window.end, r.window.start, repr(r.key)) for r in results]
    assert by_end == sorted(by_end)
    assert len(set(by_end)) == len(by_end)  # one result per merged group
    emit_times = [r.emit_time for r in results]
    assert emit_times == sorted(emit_times)
    flushed = [r.flushed for r in results]
    assert flushed == sorted(flushed)  # the flushed results are a suffix
    assert flushed[-1]  # and there always is one: K > 0 holds the last end open
    # Which is the documented canonical order (a stable sort leaves it be).
    assert results == sorted(
        results,
        key=lambda r: (r.emit_time, r.flushed, r.window.end, r.window.start, repr(r.key)),
    )


def test_a_frontier_jump_closes_several_ends_in_order():
    # The deterministic instance of the gap the property draws: both
    # shards' frontiers step from 2.5 to 33 on the elements at 34.0, so
    # the ends 4..7 share one emit time and the order among them is the
    # end's alone.
    times = [0.5, 1.5, 2.5, 3.5, 34.0, 34.5, 35.5, 36.0]
    stream = [
        StreamElement(event_time=t, value=1.0, arrival_time=t + 0.1, key=key, seq=2 * i + j)
        for i, t in enumerate(times)
        for j, key in enumerate("ab")
    ]
    assert stable_shard("a", 2) != stable_shard("b", 2)
    operator = ShardedWindowOperator(
        2, SlidingWindowAssigner(4.0, 1.0), CountAggregate(), lambda: KSlackHandler(1.0)
    )
    results = run_pipeline(stream, operator).results
    at_the_jump = [(r.window.end, r.key) for r in results if r.emit_time == 34.0 + 0.1]
    assert at_the_jump == [(end, key) for end in (4.0, 5.0, 6.0, 7.0) for key in "ab"]
    assert any(r.flushed for r in results)


def test_hash_equal_keys_split_over_shards_merge_into_one_group():
    # 1, 1.0 and True are one dict key, so one group in the unsharded
    # operator; routed apart by their reprs they must still merge into it.
    keys = (1, 1.0, True)
    stream = [
        StreamElement(
            event_time=0.25 * seq, value=float(seq % 5), arrival_time=0.25 * seq + 0.1,
            key=keys[seq % 3], seq=seq,
        )
        for seq in range(120)
    ]
    assigner = SlidingWindowAssigner(4.0, 1.0)
    sharded = ShardedWindowOperator(
        3, assigner, SumAggregate(), lambda: KSlackHandler(1.0),
        key_fn=lambda element: repr(element.key),
    )
    assert len({stable_shard(repr(key), 3) for key in keys}) > 1
    merged = run_pipeline(stream, sharded).results
    single = run_pipeline(
        stream, WindowAggregateOperator(assigner, SumAggregate(), KSlackHandler(1.0))
    ).results
    assert len(merged) == len(single) == len({r.window for r in single})
    assert {r.window: (r.key, r.value, r.count) for r in merged} == {
        r.window: (r.key, r.value, r.count) for r in single
    }
    assert max(r.count for r in merged) > 120 // 3 // 4  # groups did span shards
