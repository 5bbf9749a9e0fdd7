"""Property tests: tree execution is equivalent to naive execution.

The partial-aggregate tree re-associates merges (dyadic decomposition
instead of left-to-right slice chains), so the equivalence claim splits:

* **bit-identical** for order-independent aggregates — count, min, max,
  distinct-count — under arbitrary disorder, late patches and retirement
  corrections;
* **within float-association tolerance** for sum/mean.

A third family checks the shared slice store against private per-query
pipelines on multi-query (E11-style) workloads.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    CountAggregate,
    DistinctCountAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.engine.handlers import KSlackHandler
from repro.engine.partial_tree import SharedSliceStore, run_shared_slices
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement

# --------------------------------------------------------------------- #
# strategies

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
event_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Small universe so distinct-count windows actually collide.
coarse_values = st.integers(min_value=0, max_value=12).map(float)

WINDOW_PARAMS = [(4.0, 1.0), (10.0, 2.0), (6.0, 3.0), (5.0, 5.0), (8.0, 0.5)]

ORDER_INDEPENDENT = [CountAggregate, MinAggregate, MaxAggregate, DistinctCountAggregate]


@st.composite
def arrived_streams(draw, max_size=60, value_strategy=values):
    """Arrival-ordered streams with arbitrary bounded delays."""
    pairs = draw(
        st.lists(
            st.tuples(event_times, delays, value_strategy),
            min_size=1,
            max_size=max_size,
        )
    )
    elements = [
        StreamElement(event_time=ts, value=v, arrival_time=ts + d, seq=i)
        for i, (ts, d, v) in enumerate(sorted(pairs))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


def run_pair(stream, size, slide, k, aggregate_cls, feedback_horizon=None):
    naive = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        KSlackHandler(k),
        feedback_horizon=feedback_horizon,
    )
    tree = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        KSlackHandler(k),
        feedback_horizon=feedback_horizon,
        mode="tree",
    )
    naive_results = run_pipeline(stream, naive).results
    tree_results = run_pipeline(stream, tree).results
    return naive, naive_results, tree, tree_results


# --------------------------------------------------------------------- #
# bit-identical family


@given(
    arrived_streams(value_strategy=coarse_values),
    st.sampled_from(WINDOW_PARAMS),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from(ORDER_INDEPENDENT),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_bit_identical_for_order_independent_aggregates(
    stream, window_params, k, aggregate_cls
):
    size, slide = window_params
    __, naive_results, __, tree_results = run_pair(
        stream, size, slide, k, aggregate_cls
    )
    naive_map = {(r.key, r.window): (r.value, r.count) for r in naive_results}
    tree_map = {(r.key, r.window): (r.value, r.count) for r in tree_results}
    assert naive_map == tree_map  # exact equality: values, counts, windows


@given(
    arrived_streams(value_strategy=coarse_values),
    st.sampled_from(WINDOW_PARAMS),
    st.sampled_from(ORDER_INDEPENDENT),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_retirement_corrections_bit_identical(stream, window_params, aggregate_cls):
    """Late patches feed retirement: observed errors must match exactly.

    K = 0 maximizes lateness, and a small feedback horizon forces windows
    to retire (and be re-assembled from patched partials) mid-stream.  The
    reference is sliced mode: both slice-based modes score emitted
    windows only, while naive mode additionally scores phantom
    records for missed windows (see
    ``test_observed_errors_match_for_emitted_windows`` in the sliced suite).
    """
    size, slide = window_params
    sliced = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        KSlackHandler(0.0),
        feedback_horizon=size,
        mode="sliced",
    )
    tree = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        KSlackHandler(0.0),
        feedback_horizon=size,
        mode="tree",
    )
    sliced_results = run_pipeline(stream, sliced).results
    tree_results = run_pipeline(stream, tree).results
    assert len(sliced_results) == len(tree_results)
    sliced_errors = sliced.stats.observed_errors
    tree_errors = tree.stats.observed_errors
    assert len(sliced_errors) == len(tree_errors)
    for a, b in zip(sorted(sliced_errors), sorted(tree_errors)):
        assert (math.isnan(a) and math.isnan(b)) or a == b


# --------------------------------------------------------------------- #
# float-association family


@given(
    arrived_streams(),
    st.sampled_from(WINDOW_PARAMS),
    st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from([SumAggregate, MeanAggregate]),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_within_association_tolerance_for_sum_mean(
    stream, window_params, k, aggregate_cls
):
    size, slide = window_params
    __, naive_results, __, tree_results = run_pair(
        stream, size, slide, k, aggregate_cls
    )
    naive_map = {(r.key, r.window): (r.value, r.count) for r in naive_results}
    tree_map = {(r.key, r.window): (r.value, r.count) for r in tree_results}
    assert set(naive_map) == set(tree_map)
    for slot, (value, count) in naive_map.items():
        t_value, t_count = tree_map[slot]
        assert t_count == count
        assert t_value == value or abs(t_value - value) <= 1e-6 * max(1.0, abs(value))


# --------------------------------------------------------------------- #
# shared store vs per-query pipelines


@given(
    arrived_streams(value_strategy=coarse_values),
    st.lists(
        st.tuples(
            st.sampled_from([2.0, 4.0, 8.0, 16.0]),  # sizes over slide 2.0
            st.floats(min_value=0.0, max_value=5.0),  # per-query slack
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shared_store_equals_private_pipelines(stream, query_configs):
    store = SharedSliceStore(2.0, CountAggregate())
    for index, (size, slack) in enumerate(query_configs):
        store.register(f"q{index}", size, slack=slack)
    shared = run_shared_slices(stream, store)
    for index, (size, slack) in enumerate(query_configs):
        solo = WindowAggregateOperator(
            SlidingWindowAssigner(size, 2.0),
            CountAggregate(),
            KSlackHandler(slack),
            mode="tree",
        )
        solo_results = run_pipeline(stream, solo).results
        shared_map = {
            (r.key, r.window): (r.value, r.count) for r in shared[f"q{index}"]
        }
        solo_map = {(r.key, r.window): (r.value, r.count) for r in solo_results}
        assert shared_map == solo_map
        assert (
            store.stats_for(f"q{index}").late_dropped == solo.stats.late_dropped
        )
