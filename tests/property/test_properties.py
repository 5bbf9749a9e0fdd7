"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimators import StreamContext, make_error_model
from repro.core.sampling import SlidingDelaySample
from repro.engine.aggregate_op import relative_error
from repro.engine.aggregates import (
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
    MinAggregate,
    StdDevAggregate,
    SumAggregate,
)
from repro.engine.buffer import SortingBuffer
from repro.engine.handlers import KSlackHandler
from repro.engine.metrics import LatencySummary
from repro.engine.oracle import oracle_results
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ConstantDelay
from repro.streams.disorder import count_inversions, inject_disorder
from repro.streams.element import StreamElement

# --------------------------------------------------------------------- #
# strategies

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
event_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def arrived_streams(draw, max_size=60):
    """Arrival-ordered streams with arbitrary bounded delays."""
    pairs = draw(
        st.lists(st.tuples(event_times, delays, values), min_size=1, max_size=max_size)
    )
    elements = [
        StreamElement(event_time=ts, value=v, arrival_time=ts + d, seq=i)
        for i, (ts, d, v) in enumerate(sorted(pairs))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


# --------------------------------------------------------------------- #
# disorder machinery


@given(st.lists(st.floats(allow_nan=False, min_value=-1e9, max_value=1e9), max_size=60))
def test_count_inversions_matches_bruteforce(xs):
    brute = sum(
        1 for i in range(len(xs)) for j in range(i + 1, len(xs)) if xs[i] > xs[j]
    )
    assert count_inversions(xs) == brute


@given(
    st.lists(st.tuples(event_times, values), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_inject_disorder_is_arrival_sorted_permutation(pairs, seed):
    elements = [
        StreamElement(event_time=ts, value=v, seq=i)
        for i, (ts, v) in enumerate(sorted(pairs))
    ]
    rng = np.random.default_rng(seed)
    out = inject_disorder(elements, ConstantDelay(0.0), rng)
    arrivals = [el.arrival_time for el in out]
    assert arrivals == sorted(arrivals)
    assert sorted(el.value for el in out) == sorted(el.value for el in elements)


# --------------------------------------------------------------------- #
# sorting buffer / K-slack


@given(arrived_streams())
def test_sorting_buffer_total_order(stream):
    buffer = SortingBuffer()
    for element in stream:
        buffer.push(element)
    drained = buffer.drain()
    keys = [el.event_sort_key() for el in drained]
    assert keys == sorted(keys)
    assert len(drained) == len(stream)


@given(arrived_streams(), st.floats(min_value=0.0, max_value=100.0))
def test_kslack_releases_everything_exactly_once(stream, k):
    handler = KSlackHandler(k)
    released = []
    for element in stream:
        released.extend(handler.offer(element))
    released.extend(handler.flush())
    assert sorted(el.seq for el in released) == sorted(el.seq for el in stream)


@given(arrived_streams())
def test_kslack_frontier_monotone(stream):
    handler = KSlackHandler(1.0)
    previous = float("-inf")
    for element in stream:
        handler.offer(element)
        assert handler.frontier >= previous
        previous = handler.frontier


@given(arrived_streams())
def test_kslack_with_max_displacement_restores_order(stream):
    # K = max displacement guarantees perfect reordering.
    running = float("-inf")
    displacement = 0.0
    for element in stream:
        if element.event_time < running:
            displacement = max(displacement, running - element.event_time)
        running = max(running, element.event_time)
    handler = KSlackHandler(displacement)
    released = []
    for element in stream:
        released.extend(handler.offer(element))
    released.extend(handler.flush())
    keys = [el.event_sort_key() for el in released]
    assert keys == sorted(keys)


# --------------------------------------------------------------------- #
# windows


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=10000.0),
)
def test_sliding_assignment_invariants(size, slide_fraction_src, ts):
    slide = min(size, max(0.1, slide_fraction_src % size))
    assigner = SlidingWindowAssigner(size=size, slide=slide)
    windows = assigner.assign(ts)
    assert windows
    # +1 tolerance: when size/slide is FP-integral both boundary windows can
    # round into membership.
    assert len(windows) <= math.ceil(size / slide) + 1
    for window in windows:
        assert window.contains(ts)
    starts = [w.start for w in windows]
    assert starts == sorted(starts)
    assert len(set(starts)) == len(starts)


# --------------------------------------------------------------------- #
# aggregates

AGGREGATES = [
    CountAggregate(),
    SumAggregate(),
    MeanAggregate(),
    MinAggregate(),
    MaxAggregate(),
    StdDevAggregate(),
    MedianAggregate(),
]


@given(
    st.lists(values, min_size=1, max_size=50),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(AGGREGATES),
)
def test_aggregate_merge_equals_batch(xs, split_src, aggregate):
    split = split_src % (len(xs) + 1)
    left = aggregate.create()
    for x in xs[:split]:
        aggregate.add(left, x)
    right = aggregate.create()
    for x in xs[split:]:
        aggregate.add(right, x)
    merged = aggregate.merge(left, right)
    batch = aggregate.create()
    for x in xs:
        aggregate.add(batch, x)
    a = aggregate.result(merged)
    b = aggregate.result(batch)
    assert a == b or abs(a - b) <= 1e-6 * max(1.0, abs(b))


@given(st.lists(values, min_size=1, max_size=50))
def test_mean_between_min_and_max(xs):
    mean = MeanAggregate()
    acc = mean.create()
    for x in xs:
        mean.add(acc, x)
    assert min(xs) - 1e-9 <= mean.result(acc) <= max(xs) + 1e-9


# --------------------------------------------------------------------- #
# oracle


@given(arrived_streams(max_size=40), st.integers(min_value=0, max_value=2**31 - 1))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_oracle_is_permutation_invariant(stream, seed):
    assigner = SlidingWindowAssigner(size=10, slide=5)
    aggregate = SumAggregate()
    rng = np.random.default_rng(seed)
    shuffled = list(stream)
    rng.shuffle(shuffled)
    assert oracle_results(stream, assigner, aggregate) == oracle_results(
        shuffled, assigner, aggregate
    )


# --------------------------------------------------------------------- #
# error metric and models


@given(values, values)
def test_relative_error_non_negative_and_zero_iff_equal(a, b):
    error = relative_error(a, b)
    assert error >= 0.0
    if a == b:
        assert error == 0.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.001, max_value=5.0),
    st.floats(min_value=1.0, max_value=10000.0),
    st.sampled_from(["additive_mass", "mean", "extremum", "rank", "distinct"]),
)
def test_error_models_monotone_and_invertible(p, dispersion, n, kind):
    model = make_error_model(kind)
    context = StreamContext(dispersion=dispersion, expected_window_count=n)
    error = model.error_from_late_fraction(p, context)
    assert error >= 0.0
    smaller = model.error_from_late_fraction(p / 2, context)
    assert smaller <= error + 1e-12
    inverted = model.late_fraction_for_error(error, context)
    assert inverted >= p - 1e-9  # at least as permissive as the forward map


# --------------------------------------------------------------------- #
# samplers and summaries


@given(st.lists(delays, min_size=1, max_size=200))
def test_sliding_sample_quantiles_bounded_and_monotone(xs):
    sample = SlidingDelaySample(capacity=100)
    for x in xs:
        sample.observe(x)
    recent = xs[-100:]
    quantiles = [sample.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert quantiles == sorted(quantiles)
    for q in quantiles:
        assert min(recent) <= q <= max(recent)


@given(st.lists(st.floats(min_value=-100, max_value=1000, allow_nan=False), min_size=1))
def test_latency_summary_order(xs):
    summary = LatencySummary.from_values(xs)
    assert summary.count == len(xs)
    assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
    slack = 1e-9 * max(1.0, max(abs(x) for x in xs))
    assert min(xs) - slack <= summary.mean <= max(xs) + slack


# --------------------------------------------------------------------- #
# slice store vs naive window execution


@given(
    arrived_streams(max_size=50),
    st.sampled_from([(4.0, 1.0), (10.0, 2.0), (6.0, 3.0), (5.0, 5.0)]),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sliced_equals_naive(stream, window_params, k):
    from repro.engine.aggregate_op import WindowAggregateOperator
    from repro.engine.pipeline import run_pipeline

    size, slide = window_params
    naive = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide), SumAggregate(), KSlackHandler(k)
    )
    sliced = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        SumAggregate(),
        KSlackHandler(k),
        mode="tree",
    )
    naive_results = run_pipeline(stream, naive).results
    sliced_results = run_pipeline(stream, sliced).results
    naive_map = {(r.key, r.window): (r.value, r.count) for r in naive_results}
    sliced_map = {(r.key, r.window): (r.value, r.count) for r in sliced_results}
    assert set(naive_map) == set(sliced_map)
    for slot, (value, count) in naive_map.items():
        s_value, s_count = sliced_map[slot]
        assert s_count == count
        assert s_value == value or abs(s_value - value) <= 1e-6 * max(1.0, abs(value))
