"""Tests for quality-driven sequence-pattern matching."""

import pytest

from repro.core.pair_quality import QualityDrivenSequencePattern
from repro.engine.handlers import NoBufferHandler
from repro.engine.pairs import SequencePatternOperator, oracle_pairs, pair_recall
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def is_a(element):
    return element.value > 0


def is_b(element):
    return element.value < 0


def oracle(stream, within):
    query = SequencePatternOperator(is_a, is_b, within=within, handler=NoBufferHandler())
    return oracle_pairs(stream, query.roles_of, query.in_bound)


def drive(operator, elements):
    matches = []
    for element in elements:
        matches.extend(operator.process(element))
    matches.extend(operator.finish())
    return matches


def ab_stream(rng, duration=240, rate=80, mean_delay=1.0):
    base = generate_stream(duration=duration, rate=rate, rng=rng, keys=("x", "y"))
    typed = [
        StreamElement(
            event_time=el.event_time,
            value=(1.0 if i % 3 else -1.0),
            key=el.key,
            seq=el.seq,
        )
        for i, el in enumerate(base)
    ]
    return inject_disorder(typed, ExponentialDelay(mean_delay), rng)


class TestShadowLossCounting:
    def test_lost_matches_counted(self, rng):
        stream = ab_stream(rng, duration=60)
        operator = SequencePatternOperator(
            is_a, is_b, within=1.0, handler=NoBufferHandler(), shadow_horizon=60.0
        )
        drive(operator, stream)
        assert operator.lost > 0

    def test_emitted_plus_lost_equals_truth(self, rng):
        """With full shadow coverage the accounting is exact."""
        stream = ab_stream(rng, duration=60)
        operator = SequencePatternOperator(
            is_a, is_b, within=1.0, handler=NoBufferHandler(), shadow_horizon=500.0
        )
        matches = drive(operator, stream)
        truth = oracle(stream, within=1.0)
        # Element-level emitted count == set-level here because generated
        # timestamps are continuous (no duplicate-timestamp collapses).
        assert operator.emitted == len(
            {(m.key, m.first_time, m.second_time) for m in matches}
        )
        assert operator.emitted + operator.lost == len(truth)

    def test_loss_estimate_tracks_true_loss(self, rng):
        stream = ab_stream(rng, duration=60)
        operator = SequencePatternOperator(
            is_a, is_b, within=1.0, handler=NoBufferHandler(), shadow_horizon=500.0
        )
        matches = drive(operator, stream)
        truth = oracle(stream, within=1.0)
        true_loss = 1.0 - pair_recall(matches, truth)
        assert operator.recall_loss_estimate() == pytest.approx(true_loss, abs=0.02)

    def test_shadow_disabled_by_default(self, rng):
        stream = ab_stream(rng, duration=30)
        operator = SequencePatternOperator(
            is_a, is_b, within=1.0, handler=NoBufferHandler()
        )
        drive(operator, stream)
        assert operator.lost == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            SequencePatternOperator(
                is_a, is_b, within=1.0, handler=NoBufferHandler(), shadow_horizon=-1.0
            )


class TestQualityDrivenPattern:
    def test_meets_recall_target(self, rng):
        stream = ab_stream(rng)
        operator = QualityDrivenSequencePattern(
            is_a, is_b, within=1.0, threshold=0.05
        )
        matches = drive(operator, stream)
        truth = oracle(stream, within=1.0)
        assert pair_recall(matches, truth) >= 0.93

    def test_beats_no_buffer(self, rng):
        stream = ab_stream(rng)
        truth = oracle(stream, within=1.0)
        eager = SequencePatternOperator(
            is_a, is_b, within=1.0, handler=NoBufferHandler()
        )
        eager_recall = pair_recall(drive(eager, stream), truth)
        adaptive = QualityDrivenSequencePattern(is_a, is_b, within=1.0, threshold=0.05)
        adaptive_recall = pair_recall(drive(adaptive, stream), truth)
        assert adaptive_recall > eager_recall

    def test_slack_below_worst_case(self, rng):
        stream = ab_stream(rng)
        max_delay = max(el.delay for el in stream)
        operator = QualityDrivenSequencePattern(
            is_a, is_b, within=1.0, threshold=0.05
        )
        drive(operator, stream)
        assert operator.current_slack < max_delay

    def test_feedback_reaches_controller(self, rng):
        stream = ab_stream(rng, duration=120)
        operator = QualityDrivenSequencePattern(
            is_a, is_b, within=1.0, threshold=0.05, feedback_every=100
        )
        drive(operator, stream)
        assert operator.handler.controller.samples_seen > 0

    def test_bad_feedback_every_rejected(self):
        with pytest.raises(ConfigurationError):
            QualityDrivenSequencePattern(
                is_a, is_b, within=1.0, threshold=0.05, feedback_every=0
            )
