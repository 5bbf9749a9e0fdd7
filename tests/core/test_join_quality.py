"""Tests for quality-driven interval joins."""

import pytest

from repro.core.pair_quality import QualityDrivenIntervalJoin
from repro.engine.handlers import NoBufferHandler
from repro.engine.pairs import IntervalJoinOperator, oracle_pairs, pair_recall
from repro.engine.pipeline import run_pipeline
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def side_of(element: StreamElement) -> str:
    return "left" if element.value >= 0 else "right"


def oracle(stream, bound):
    query = IntervalJoinOperator(bound, NoBufferHandler(), side_of)
    return oracle_pairs(stream, query.roles_of, query.in_bound)


def run(stream, operator):
    return run_pipeline(stream, operator).results


def make_join_stream(rng, duration=120, rate=80, mean_delay=1.0):
    base = generate_stream(duration=duration, rate=rate, rng=rng, keys=("a", "b"))
    signed = [
        StreamElement(
            event_time=el.event_time,
            value=(1.0 if i % 2 == 0 else -1.0),
            key=el.key,
            seq=el.seq,
        )
        for i, el in enumerate(base)
    ]
    return inject_disorder(signed, ExponentialDelay(mean_delay), rng)


class TestShadowStore:
    def test_lost_pairs_counted(self, rng):
        stream = make_join_stream(rng)
        operator = IntervalJoinOperator(
            bound=0.5,
            handler=NoBufferHandler(),
            side_selector=side_of,
            shadow_horizon=60.0,
        )
        run(stream, operator)
        assert operator.lost > 0
        assert 0.0 < operator.recall_loss_estimate() < 1.0

    def test_lost_estimate_tracks_true_loss(self, rng):
        stream = make_join_stream(rng)
        operator = IntervalJoinOperator(
            bound=0.5,
            handler=NoBufferHandler(),
            side_selector=side_of,
            shadow_horizon=120.0,
        )
        results = run(stream, operator)
        truth = oracle(stream, 0.5)
        true_loss = 1.0 - pair_recall(results, truth)
        assert operator.recall_loss_estimate() == pytest.approx(true_loss, abs=0.05)

    def test_shadow_disabled_by_default(self, rng):
        stream = make_join_stream(rng, duration=30)
        operator = IntervalJoinOperator(
            bound=0.5, handler=NoBufferHandler(), side_selector=side_of
        )
        run(stream, operator)
        assert operator.lost == 0
        assert operator.shadow_count() == 0

    def test_shadow_is_bounded(self, rng):
        stream = make_join_stream(rng)
        operator = IntervalJoinOperator(
            bound=0.5,
            handler=NoBufferHandler(),
            side_selector=side_of,
            shadow_horizon=10.0,
        )
        run(stream, operator)
        # Retention covers ~10s of a ~80 ev/s stream, far below the total.
        assert operator.shadow_count() < len(stream) / 4

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalJoinOperator(
                bound=0.5,
                handler=NoBufferHandler(),
                side_selector=side_of,
                shadow_horizon=-1.0,
            )


class TestQualityDrivenJoin:
    def test_meets_recall_target(self, rng):
        stream = make_join_stream(rng, duration=240)
        operator = QualityDrivenIntervalJoin(
            bound=0.5, side_selector=side_of, threshold=0.05
        )
        results = run(stream, operator)
        truth = oracle(stream, 0.5)
        recall = pair_recall(results, truth)
        assert recall >= 0.93  # loss <= ~theta with small tolerance

    def test_beats_no_buffer_recall(self, rng):
        stream = make_join_stream(rng, duration=240)
        truth = oracle(stream, 0.5)

        eager = IntervalJoinOperator(
            bound=0.5, handler=NoBufferHandler(), side_selector=side_of
        )
        eager_recall = pair_recall(run(stream, eager), truth)

        adaptive = QualityDrivenIntervalJoin(
            bound=0.5, side_selector=side_of, threshold=0.05
        )
        adaptive_recall = pair_recall(run(stream, adaptive), truth)
        assert adaptive_recall > eager_recall

    def test_slack_below_worst_case(self, rng):
        """The adaptive join never needs max-delay (worst-case) buffering.

        (On this short run the controller is still paying off its
        cold-start transient, so the slack is conservative but already
        below the max observed delay; E15 shows the long-run gap.)
        """
        stream = make_join_stream(rng, duration=240)
        max_delay = max(el.delay for el in stream)
        operator = QualityDrivenIntervalJoin(
            bound=0.5, side_selector=side_of, threshold=0.05
        )
        run(stream, operator)
        assert operator.current_slack < max_delay

    def test_stricter_target_larger_slack(self, rng):
        stream = make_join_stream(rng, duration=240)
        slacks = {}
        for threshold in (0.02, 0.3):
            operator = QualityDrivenIntervalJoin(
                bound=0.5, side_selector=side_of, threshold=threshold
            )
            run(stream, operator)
            slacks[threshold] = operator.current_slack
        assert slacks[0.02] >= slacks[0.3]

    def test_feedback_samples_flow_to_controller(self, rng):
        stream = make_join_stream(rng, duration=120)
        operator = QualityDrivenIntervalJoin(
            bound=0.5, side_selector=side_of, threshold=0.05, feedback_every=100
        )
        run(stream, operator)
        assert operator.handler.controller.samples_seen > 0

    def test_bad_feedback_every_rejected(self):
        with pytest.raises(ConfigurationError):
            QualityDrivenIntervalJoin(
                bound=0.5, side_selector=side_of, threshold=0.05, feedback_every=0
            )

    def test_join_recall_empty_oracle_is_nan(self):
        import math

        assert math.isnan(pair_recall([], set()))
