"""Tests for the sequence-pattern (CEP) operator."""

import pytest

from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pairs import SequencePatternOperator, oracle_pairs, pair_recall
from repro.engine.watermarks import FixedLagWatermarkHandler
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream

from tests.conftest import make_arrived


def is_a(element: StreamElement) -> bool:
    return element.value >= 1.0


def is_b(element: StreamElement) -> bool:
    return element.value < 0.0


def oracle(stream, within):
    query = SequencePatternOperator(is_a, is_b, within=within, handler=NoBufferHandler())
    return oracle_pairs(stream, query.roles_of, query.in_bound)


def drive(operator, elements):
    matches = []
    for element in elements:
        matches.extend(operator.process(element))
    matches.extend(operator.finish())
    return matches


def ab_stream(rng, duration=60, rate=60, mean_delay=0.5):
    """Keyed stream alternating A (value 1) and B (value -1) events."""
    base = generate_stream(duration=duration, rate=rate, rng=rng, keys=("x", "y"))
    typed = [
        StreamElement(
            event_time=el.event_time,
            value=(1.0 if i % 3 else -1.0),  # 1/3 of events are B's
            key=el.key,
            seq=el.seq,
        )
        for i, el in enumerate(base)
    ]
    return inject_disorder(typed, ExponentialDelay(mean_delay), rng)


class TestSmallScenarios:
    def test_basic_match(self):
        stream = make_arrived([(1.0, 1.0, 1.0), (2.0, 2.0, -1.0)])
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        matches = drive(operator, stream)
        assert len(matches) == 1
        assert matches[0].first_time == 1.0
        assert matches[0].second_time == 2.0

    def test_within_bound_enforced(self):
        stream = make_arrived([(1.0, 1.0, 1.0), (7.0, 7.0, -1.0)])
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert drive(operator, stream) == []

    def test_order_matters(self):
        # B before A: no match.
        stream = make_arrived([(1.0, 1.0, -1.0), (2.0, 2.0, 1.0)])
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert drive(operator, stream) == []

    def test_simultaneous_events_do_not_match(self):
        stream = make_arrived([(1.0, 1.0, 1.0), (1.0, 1.0, -1.0)])
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert drive(operator, stream) == []

    def test_keys_isolated(self):
        stream = [
            StreamElement(event_time=1.0, value=1.0, key="x", arrival_time=1.0, seq=0),
            StreamElement(event_time=2.0, value=-1.0, key="y", arrival_time=2.0, seq=1),
        ]
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert drive(operator, stream) == []

    def test_multiple_firsts_all_match(self):
        stream = make_arrived(
            [(1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (3.0, 3.0, -1.0)]
        )
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert len(drive(operator, stream)) == 2

    def test_late_second_recovered_by_buffer(self):
        stream = make_arrived(
            [
                (1.0, 1.0, 1.0),
                (20.0, 20.0, 1.0),  # advances the clock
                (2.0, 20.5, -1.0),  # late B for the A at t=1
            ]
        )
        eager = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        assert drive(eager, list(stream)) == []

        buffered = SequencePatternOperator(
            is_a, is_b, within=5.0, handler=KSlackHandler(30.0)
        )
        matches = drive(buffered, list(stream))
        assert len(matches) == 1

    def test_bad_within_rejected(self):
        with pytest.raises(ConfigurationError):
            SequencePatternOperator(is_a, is_b, within=0.0, handler=NoBufferHandler())


class TestAgainstOracle:
    def test_in_order_detection_complete(self, rng):
        stream = [el.with_arrival(el.event_time) for el in
                  sorted(ab_stream(rng), key=lambda e: e.event_sort_key())]
        operator = SequencePatternOperator(is_a, is_b, within=2.0, handler=NoBufferHandler())
        matches = drive(operator, stream)
        truth = oracle(stream, within=2.0)
        assert {(m.key, m.first_time, m.second_time) for m in matches} == truth

    def test_matches_unique(self, rng):
        stream = ab_stream(rng)
        operator = SequencePatternOperator(is_a, is_b, within=2.0, handler=KSlackHandler(3.0))
        matches = drive(operator, stream)
        keys = [(m.key, m.first_time, m.second_time) for m in matches]
        assert len(keys) == len(set(keys))

    def test_disorder_loses_matches_without_buffering(self, rng):
        stream = ab_stream(rng, mean_delay=1.0)
        truth = oracle(stream, within=2.0)

        eager = SequencePatternOperator(is_a, is_b, within=2.0, handler=NoBufferHandler())
        eager_recall = pair_recall(drive(eager, stream), truth)

        buffered = SequencePatternOperator(
            is_a, is_b, within=2.0, handler=KSlackHandler(8.0)
        )
        buffered_recall = pair_recall(drive(buffered, stream), truth)
        assert eager_recall < buffered_recall

    def test_watermark_handler_unsorted_release_still_detects(self, rng):
        """Watermark handlers release unsorted; B-before-A release order
        must still produce the match."""
        stream = ab_stream(rng, mean_delay=0.5)
        truth = oracle(stream, within=2.0)
        operator = SequencePatternOperator(
            is_a, is_b, within=2.0, handler=FixedLagWatermarkHandler(lag=8.0)
        )
        recall = pair_recall(drive(operator, stream), truth)
        assert recall > 0.95

    def test_store_pruned(self, rng):
        stream = ab_stream(rng, duration=120)
        operator = SequencePatternOperator(is_a, is_b, within=2.0, handler=NoBufferHandler())
        for element in stream:
            operator.process(element)
        assert operator.stored_count() < len(stream) / 4

    def test_late_counter(self, rng):
        stream = ab_stream(rng, mean_delay=2.0)
        operator = SequencePatternOperator(is_a, is_b, within=1.0, handler=NoBufferHandler())
        drive(operator, stream)
        assert operator.late_dropped > 0

    def test_latency_property(self):
        stream = make_arrived([(1.0, 1.0, 1.0), (2.0, 2.5, -1.0)])
        operator = SequencePatternOperator(is_a, is_b, within=5.0, handler=NoBufferHandler())
        matches = drive(operator, stream)
        assert matches[0].latency == pytest.approx(0.5)

    def test_pattern_recall_empty_oracle(self):
        import math

        assert math.isnan(pair_recall([], set()))
