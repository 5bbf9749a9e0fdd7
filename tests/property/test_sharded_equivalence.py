"""Property tests: sharded execution is equivalent to single-shard execution.

The acceptance pin for the sharded engine (``docs/SCALING.md``): for any
stream, ``shards(N)`` produces the same windows as ``shards(1)`` —
bit-identical values for exact (order-independent) aggregates, within the
declared drift budget for sum/mean whose cross-shard merge re-associates
additions.  Emit times follow a monotone relation rather than equality:
the merged frontier is the minimum across shards, which can only lag the
global frontier, so sharding may delay an emission but never hasten it —
and, dually, a shard frontier lagging the global one means shards never
drop an element the single-shard run would keep (completeness).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    CountAggregate,
    DistinctCountAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.engine.handlers import KSlackHandler
from repro.engine.parallel import ShardedWindowOperator
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
event_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coarse_values = st.integers(min_value=0, max_value=12).map(float)
keys = st.sampled_from(["a", "b", "c", None])

WINDOW_PARAMS = [(4.0, 1.0), (10.0, 2.0), (6.0, 3.0), (5.0, 5.0)]

ORDER_INDEPENDENT = [CountAggregate, MinAggregate, MaxAggregate, DistinctCountAggregate]


@st.composite
def arrived_streams(draw, max_size=60, value_strategy=values):
    """Arrival-ordered keyed streams with arbitrary bounded delays."""
    rows = draw(
        st.lists(
            st.tuples(event_times, delays, value_strategy, keys),
            min_size=1,
            max_size=max_size,
        )
    )
    elements = [
        StreamElement(event_time=ts, value=v, arrival_time=ts + d, key=key, seq=i)
        for i, (ts, d, v, key) in enumerate(sorted(rows, key=lambda r: r[:3]))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


def no_late_k(stream):
    """A K under which no element of ``stream`` can ever be late."""
    return max(e.arrival_time - e.event_time for e in stream) + 1e-6


def run_sharded(stream, n, size, slide, k, aggregate_cls, mode="naive"):
    operator = ShardedWindowOperator(
        n,
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        lambda: KSlackHandler(k),
        mode=mode,
    )
    return run_pipeline(stream, operator).results


@given(
    arrived_streams(value_strategy=coarse_values),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(ORDER_INDEPENDENT),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_bit_identical_for_exact_aggregates(
    stream, window_params, n_shards, aggregate_cls
):
    """shards(N) == shards(1) values, bitwise, for exact aggregates.

    K is large enough that nothing is late, so every sharding sees every
    element: groups, values and counts must agree exactly.  Emit times
    follow the contract's monotone relation instead of equality — the
    merged frontier is the *minimum* across shards, which can only lag
    the single-shard (global) frontier, so sharding can delay a window's
    emission (or defer it to the end-of-stream flush) but never hasten it.
    """
    size, slide = window_params
    k = no_late_k(stream)
    single = run_sharded(stream, 1, size, slide, k, aggregate_cls)
    sharded = run_sharded(stream, n_shards, size, slide, k, aggregate_cls)
    single_map = {
        (repr(r.key), r.window): (r.value, r.count, r.emit_time, r.flushed)
        for r in single
    }
    sharded_map = {
        (repr(r.key), r.window): (r.value, r.count, r.emit_time, r.flushed)
        for r in sharded
    }
    assert set(single_map) == set(sharded_map)
    for slot, (value, count, emit_time, flushed) in single_map.items():
        s_value, s_count, s_emit, s_flushed = sharded_map[slot]
        assert s_value == value  # bitwise: exact aggregates
        assert s_count == count
        assert s_emit >= emit_time
        if flushed:  # single-shard flush implies the lagging gate flushed too
            assert s_flushed


@given(
    arrived_streams(),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([SumAggregate, MeanAggregate]),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_within_drift_budget_for_sum_mean(
    stream, window_params, n_shards, aggregate_cls
):
    """Cross-shard merges re-associate additions: declared budget applies."""
    size, slide = window_params
    k = no_late_k(stream)
    single = run_sharded(stream, 1, size, slide, k, aggregate_cls)
    sharded = run_sharded(stream, n_shards, size, slide, k, aggregate_cls)
    single_map = {(r.key, r.window): (r.value, r.count) for r in single}
    sharded_map = {(r.key, r.window): (r.value, r.count) for r in sharded}
    assert set(single_map) == set(sharded_map)
    for slot, (value, count) in single_map.items():
        s_value, s_count = sharded_map[slot]
        assert s_count == count
        assert s_value == value or abs(s_value - value) <= 1e-6 * max(
            1.0, abs(value)
        )


@given(
    arrived_streams(value_strategy=coarse_values, max_size=40),
    st.sampled_from(WINDOW_PARAMS),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from(ORDER_INDEPENDENT),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_is_at_least_as_complete_under_late_drops(
    stream, window_params, k, aggregate_cls
):
    """With arbitrary K (late drops allowed), shards drop no extra element.

    A shard's frontier is the running maximum over *its* elements only, so
    it can only lag the global frontier: anything on time in the
    single-shard run is on time in its shard too (the completeness half of
    the shard contract).  Hence every single-shard group appears in the
    sharded output with at least the same count, and whenever the counts
    agree — the shard dropped exactly the same elements — the value is
    bitwise equal.
    """
    size, slide = window_params
    single = run_sharded(stream, 1, size, slide, k, aggregate_cls)
    sharded = run_sharded(stream, 4, size, slide, k, aggregate_cls)
    single_map = {(r.key, r.window): (r.value, r.count) for r in single}
    sharded_map = {(r.key, r.window): (r.value, r.count) for r in sharded}
    assert set(single_map) <= set(sharded_map)
    for slot, (value, count) in single_map.items():
        s_value, s_count = sharded_map[slot]
        assert s_count >= count
        if s_count == count:
            assert s_value == value


@given(
    arrived_streams(value_strategy=coarse_values, max_size=40),
    st.integers(min_value=2, max_value=5),
    st.just("tree"),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_execution_mode_is_value_transparent(stream, n_shards, mode):
    """Per-shard naive and tree modes merge to the same windows."""
    k = no_late_k(stream)
    naive = run_sharded(stream, n_shards, 4.0, 1.0, k, CountAggregate)
    other = run_sharded(stream, n_shards, 4.0, 1.0, k, CountAggregate, mode=mode)
    project = lambda rs: sorted(  # noqa: E731 - tiny local projection
        (repr(r.key), r.window, r.value, r.count, r.flushed) for r in rs
    )
    assert project(other) == project(naive)
