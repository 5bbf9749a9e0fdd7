"""Property-based tests for sketches, pattern matching and merging."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pairs import SequencePatternOperator, oracle_pairs
from repro.engine.sketches import HyperLogLog, P2Quantile, SpaceSaving
from repro.streams.element import StreamElement
from repro.streams.multisource import merge_streams

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --------------------------------------------------------------------- #
# P-squared


@given(st.lists(values, min_size=1, max_size=300), st.floats(min_value=0.01, max_value=0.99))
def test_p2_estimate_within_observed_range(xs, q):
    sketch = P2Quantile(q)
    for x in xs:
        sketch.observe(x)
    assert min(xs) <= sketch.value() <= max(xs)
    assert sketch.count == len(xs)


@given(st.lists(values, min_size=1, max_size=5))
def test_p2_exact_for_small_inputs(xs):
    sketch = P2Quantile(0.5)
    for x in xs:
        sketch.observe(x)
    ordered = sorted(xs)
    assert sketch.value() in ordered


# --------------------------------------------------------------------- #
# HyperLogLog


@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=300))
def test_hll_idempotent_under_duplication(items):
    once = HyperLogLog(precision=10)
    twice = HyperLogLog(precision=10)
    for item in items:
        once.add(item)
        twice.add(item)
        twice.add(item)
    assert once.estimate() == twice.estimate()


@given(
    st.lists(st.integers(min_value=0, max_value=10**9), max_size=200),
    st.lists(st.integers(min_value=0, max_value=10**9), max_size=200),
)
def test_hll_merge_commutative(left_items, right_items):
    def build(items):
        sketch = HyperLogLog(precision=8)
        for item in items:
            sketch.add(item)
        return sketch

    ab = build(left_items).merge(build(right_items))
    ba = build(right_items).merge(build(left_items))
    assert ab.estimate() == ba.estimate()


@given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=300))
def test_hll_small_range_estimate_close(items):
    sketch = HyperLogLog(precision=12)
    for item in items:
        sketch.add(item)
    estimate = sketch.estimate()
    n = len(items)
    assert abs(estimate - n) <= max(3.0, 6 * sketch.relative_error * max(n, 1))


# --------------------------------------------------------------------- #
# SpaceSaving


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=400),
    st.integers(min_value=1, max_value=20),
)
def test_spacesaving_mass_conservation(items, capacity):
    """Sum of tracked counters always equals the total weight added."""
    sketch = SpaceSaving(capacity)
    for item in items:
        sketch.add(item)
    assert sum(count for __, count in sketch.top(capacity)) == len(items)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=400),
    st.integers(min_value=1, max_value=20),
)
def test_spacesaving_never_underestimates_tracked(items, capacity):
    from collections import Counter

    sketch = SpaceSaving(capacity)
    for item in items:
        sketch.add(item)
    true_counts = Counter(items)
    for item, estimate in sketch.top(capacity):
        assert estimate >= true_counts[item]


# --------------------------------------------------------------------- #
# pattern matching


@st.composite
def typed_streams(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),  # event
                st.floats(min_value=0, max_value=20, allow_nan=False),  # delay
                st.booleans(),  # is A (else B)
            ),
            min_size=1,
            max_size=60,
        )
    )
    elements = [
        StreamElement(
            event_time=ts,
            value=(1.0 if is_a else -1.0),
            key="k",
            arrival_time=ts + delay,
            seq=i,
        )
        for i, (ts, delay, is_a) in enumerate(sorted(rows))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


def is_a(element):
    return element.value > 0


def is_b(element):
    return element.value < 0


def element_level_match_count(stream, within) -> int:
    """Number of (A-element, B-element) pairs — counts same-timestamp
    duplicates separately, unlike the set-based oracle."""
    count = 0
    for a in stream:
        if not is_a(a):
            continue
        for b in stream:
            if is_b(b) and a.key == b.key:
                gap = b.event_time - a.event_time
                if 0.0 < gap <= within:
                    count += 1
    return count


@given(typed_streams(), st.floats(min_value=0.1, max_value=50))
@settings(deadline=None)
def test_pattern_emits_subset_of_oracle(stream, within):
    operator = SequencePatternOperator(is_a, is_b, within=within, handler=NoBufferHandler())
    matches = []
    for element in stream:
        matches.extend(operator.process(element))
    matches.extend(operator.finish())
    emitted = [(m.key, m.first_time, m.second_time) for m in matches]
    truth = oracle_pairs(stream, operator.roles_of, operator.in_bound)
    assert set(emitted) <= truth
    # Each element-level pair is emitted at most once (duplicates in the
    # emitted list can only come from distinct same-timestamp elements).
    assert len(emitted) <= element_level_match_count(stream, within)


@given(typed_streams(), st.floats(min_value=0.1, max_value=50))
@settings(deadline=None)
def test_pattern_complete_with_full_buffering(stream, within):
    operator = SequencePatternOperator(
        is_a, is_b, within=within, handler=KSlackHandler(100.0)
    )
    matches = []
    for element in stream:
        matches.extend(operator.process(element))
    matches.extend(operator.finish())
    emitted = {(m.key, m.first_time, m.second_time) for m in matches}
    assert emitted == oracle_pairs(stream, operator.roles_of, operator.in_bound)


# --------------------------------------------------------------------- #
# stream merging


@st.composite
def arrived_source(draw, key):
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
            ),
            max_size=40,
        )
    )
    elements = [
        StreamElement(event_time=ts, value=0.0, key=key, arrival_time=ts + d, seq=i)
        for i, (ts, d) in enumerate(sorted(rows))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


@given(arrived_source("a"), arrived_source("b"), arrived_source("c"))
def test_merge_streams_properties(a, b, c):
    merged = merge_streams([a, b, c])
    assert len(merged) == len(a) + len(b) + len(c)
    arrivals = [el.arrival_time for el in merged]
    assert arrivals == sorted(arrivals)
    seqs = [el.seq for el in merged]
    assert len(seqs) == len(set(seqs))
    # Per-source event/value multisets preserved.
    for source, original in (("a", a), ("b", b), ("c", c)):
        kept = sorted(el.event_time for el in merged if el.key == source)
        assert kept == sorted(el.event_time for el in original)
