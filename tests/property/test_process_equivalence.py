"""Property tests: process-pool shards are equivalent to in-process/unsharded.

The executor half of the shard contract (``docs/SCALING.md``): which
:class:`~repro.engine.parallel.ShardExecutor` carries the shards must be
invisible in the output.  For the *same* shard count, the process pool
must be **bit-identical** to the in-process executor on the full result list
— values, counts, emit times, flush flags — for every aggregate,
including sum/mean: routing, per-shard streams and merge fold order are
all executor-independent, so even re-associated float results agree to
the bit.  Against *unsharded* execution the usual sharding relations
apply: exact aggregates bit-identical with monotone emit times, sum/mean
within the declared ``__numeric__`` drift budget.

One warm two-worker pool (chunk_size=16, so even small streams exercise
multi-chunk dispatch) is shared across all examples — the point of the
warm-pool design — which keeps these properties affordable despite the
process round trips.
"""

from __future__ import annotations

import pytest
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
from repro.engine.process_pool import ProcessShardExecutor
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
event_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coarse_values = st.integers(min_value=0, max_value=12).map(float)
keys = st.sampled_from(["a", "b", "c", None])
hot_keys = st.just("hot")

WINDOW_PARAMS = [(4.0, 1.0), (10.0, 2.0), (5.0, 5.0)]

ORDER_INDEPENDENT = [CountAggregate, MinAggregate, MaxAggregate, DistinctCountAggregate]

EXAMPLES = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def arrived_streams(draw, max_size=40, value_strategy=values, key_strategy=keys):
    """Arrival-ordered keyed streams with arbitrary bounded delays."""
    rows = draw(
        st.lists(
            st.tuples(event_times, delays, value_strategy, key_strategy),
            min_size=1,
            max_size=max_size,
        )
    )
    elements = [
        StreamElement(event_time=ts, value=v, arrival_time=ts + d, key=key, seq=i)
        for i, (ts, d, v, key) in enumerate(sorted(rows, key=lambda r: r[:3]))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


@pytest.fixture(scope="module")
def pool():
    """Warm process pool shared by every example in this module."""
    executor = ProcessShardExecutor(max_workers=2, chunk_size=16)
    yield executor
    executor.close()


def no_late_k(stream):
    """A K under which no element of ``stream`` can ever be late."""
    return max(e.arrival_time - e.event_time for e in stream) + 1e-6


def run_sharded(stream, n, size, slide, k, aggregate_cls, executor=None):
    operator = ShardedWindowOperator(
        n,
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        lambda: KSlackHandler(k),
        executor=executor,
    )
    return run_pipeline(stream, operator).results


def canonical(results):
    return [
        (repr(r.key), r.window, r.value, r.count, r.emit_time, r.latency, r.flushed)
        for r in results
    ]


@given(
    arrived_streams(),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(ORDER_INDEPENDENT + [SumAggregate, MeanAggregate]),
)
@EXAMPLES
def test_process_bit_identical_to_threads_for_all_aggregates(
    pool, stream, window_params, n_shards, aggregate_cls
):
    """Same shard count, different executor: bitwise-equal result lists.

    Holds even for sum/mean because routing and merge fold order are
    executor-independent — only *where* each shard computes changes.
    """
    size, slide = window_params
    k = no_late_k(stream)
    in_process = run_sharded(stream, n_shards, size, slide, k, aggregate_cls)
    processed = run_sharded(
        stream, n_shards, size, slide, k, aggregate_cls, executor=pool
    )
    assert canonical(processed) == canonical(in_process)


@given(
    arrived_streams(value_strategy=coarse_values, key_strategy=hot_keys),
    st.sampled_from(WINDOW_PARAMS),
    st.sampled_from(ORDER_INDEPENDENT),
)
@EXAMPLES
def test_key_skew_with_empty_shards_matches_threads(
    pool, stream, window_params, aggregate_cls
):
    """One hot key over 4 shards: 3 shards stay empty, results still agree."""
    size, slide = window_params
    k = no_late_k(stream)
    in_process = run_sharded(stream, 4, size, slide, k, aggregate_cls)
    processed = run_sharded(stream, 4, size, slide, k, aggregate_cls, executor=pool)
    assert canonical(processed) == canonical(in_process)


@given(
    arrived_streams(value_strategy=coarse_values),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(ORDER_INDEPENDENT),
)
@EXAMPLES
def test_process_matches_unsharded_for_exact_aggregates(
    pool, stream, window_params, n_shards, aggregate_cls
):
    """process(N) vs shards(1): exact values/counts, monotone emit times."""
    size, slide = window_params
    k = no_late_k(stream)
    single = run_sharded(stream, 1, size, slide, k, aggregate_cls)
    processed = run_sharded(
        stream, n_shards, size, slide, k, aggregate_cls, executor=pool
    )
    single_map = {
        (repr(r.key), r.window): (r.value, r.count, r.emit_time, r.flushed)
        for r in single
    }
    processed_map = {
        (repr(r.key), r.window): (r.value, r.count, r.emit_time, r.flushed)
        for r in processed
    }
    assert set(single_map) == set(processed_map)
    for slot, (value, count, emit_time, flushed) in single_map.items():
        p_value, p_count, p_emit, p_flushed = processed_map[slot]
        assert p_value == value  # bitwise: exact aggregates
        assert p_count == count
        assert p_emit >= emit_time
        if flushed:
            assert p_flushed


@given(
    arrived_streams(),
    st.sampled_from(WINDOW_PARAMS),
    st.integers(min_value=2, max_value=4),
    st.sampled_from([SumAggregate, MeanAggregate]),
)
@EXAMPLES
def test_process_within_drift_budget_vs_unsharded_for_sum_mean(
    pool, stream, window_params, n_shards, aggregate_cls
):
    """Cross-shard merges re-associate additions: declared budget applies."""
    size, slide = window_params
    k = no_late_k(stream)
    single = run_sharded(stream, 1, size, slide, k, aggregate_cls)
    processed = run_sharded(
        stream, n_shards, size, slide, k, aggregate_cls, executor=pool
    )
    single_map = {(r.key, r.window): (r.value, r.count) for r in single}
    processed_map = {(r.key, r.window): (r.value, r.count) for r in processed}
    assert set(single_map) == set(processed_map)
    for slot, (value, count) in single_map.items():
        p_value, p_count = processed_map[slot]
        assert p_count == count
        assert p_value == value or abs(p_value - value) <= 1e-6 * max(
            1.0, abs(value)
        )
