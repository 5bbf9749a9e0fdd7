"""Property-based tests for sequence-pattern matching and stream merging."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pairs import SequencePatternOperator, oracle_pairs
from repro.streams.element import StreamElement
from repro.streams.multisource import merge_streams

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
