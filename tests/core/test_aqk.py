"""Tests for the adaptive quality-driven K-slack handler."""

import math

import pytest

from repro.core.aqk import PENDING_FOLD_LIMIT, AQKSlackHandler
from repro.core.controller import NoFeedbackController
from repro.core.sampling import (
    P2DelayBank,
    RateTracker,
    ReservoirSample,
    SlidingDelaySample,
    ValueStatsTracker,
)
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import CountAggregate, MeanAggregate
from repro.errors import ConfigurationError
from repro.streams.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def drive(handler, elements):
    released = []
    frontiers = []
    for element in elements:
        released.extend(handler.offer(element))
        frontiers.append(handler.frontier)
    released.extend(handler.flush())
    return released, frontiers


def make_stream(rng, model, duration=60, rate=100):
    return inject_disorder(generate_stream(duration=duration, rate=rate, rng=rng), model, rng)


class TestQualityMode:
    def test_k_tracks_delay_quantile_without_feedback(self, rng):
        """For count, allowed late fraction = theta: K ~ Q(1 - theta)."""
        stream = make_stream(rng, UniformDelay(0.0, 1.0), duration=120)
        theta = 0.1
        handler = AQKSlackHandler(
            target=QualityTarget(theta),
            aggregate=CountAggregate(),
            controller=NoFeedbackController(),
            adapt_interval=0.5,
        )
        drive(handler, stream)
        # Q(0.9) of uniform [0,1) delays is 0.9.
        assert handler.k == pytest.approx(0.9, abs=0.1)

    def test_looser_target_means_smaller_k(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=120)
        ks = {}
        for theta in (0.01, 0.2):
            handler = AQKSlackHandler(
                target=QualityTarget(theta),
                aggregate=CountAggregate(),
                controller=NoFeedbackController(),
            )
            drive(handler, stream)
            ks[theta] = handler.k
        assert ks[0.2] < ks[0.01]

    def test_frontier_monotone_under_adaptation(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5))
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        __, frontiers = drive(handler, stream)
        assert frontiers == sorted(frontiers)

    def test_releases_everything_exactly_once(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5))
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        released, __ = drive(handler, stream)
        assert sorted(released, key=lambda e: e.seq) == sorted(
            stream, key=lambda e: e.seq
        )

    def test_no_adaptation_during_warmup(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5))
        handler = AQKSlackHandler(
            target=QualityTarget(0.05),
            aggregate=CountAggregate(),
            warmup_elements=10**9,
        )
        drive(handler, stream)
        assert handler.adaptations == []
        assert handler.k == 0.0

    def test_adaptation_interval_respected(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=60)
        handler = AQKSlackHandler(
            target=QualityTarget(0.05),
            aggregate=CountAggregate(),
            adapt_interval=5.0,
            warmup_elements=0,
        )
        drive(handler, stream)
        times = [record.arrival_time for record in handler.adaptations]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 5.0 - 1e-9 for gap in gaps)

    def test_k_clamped_to_bounds(self, rng):
        stream = make_stream(rng, ExponentialDelay(2.0))
        handler = AQKSlackHandler(
            target=QualityTarget(0.001),
            aggregate=CountAggregate(),
            k_max=0.5,
        )
        drive(handler, stream)
        assert handler.k <= 0.5
        assert all(record.k_applied <= 0.5 for record in handler.adaptations)

    def test_in_order_stream_keeps_k_near_zero(self, rng):
        stream = make_stream(rng, ConstantDelay(0.1))
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        drive(handler, stream)
        # Every delay is 0.1; Q(0.95) = 0.1, and feedback sees zero error.
        assert handler.k <= 0.2

    def test_mean_aggregate_allows_smaller_k_than_count(self, rng):
        """The mean error model tolerates far more lateness per error unit."""
        stream = make_stream(rng, ExponentialDelay(0.5), duration=120)
        ks = {}
        for aggregate in (CountAggregate(), MeanAggregate()):
            handler = AQKSlackHandler(
                target=QualityTarget(0.02),
                aggregate=aggregate,
                window_size=10.0,
                controller=NoFeedbackController(),
            )
            drive(handler, stream)
            ks[aggregate.name] = handler.k
        assert ks["mean"] <= ks["count"]

    def test_adaptations_recorded_with_state(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5))
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        drive(handler, stream)
        assert handler.adaptations
        record = handler.adaptations[-1]
        assert 0.0 <= record.allowed_late_fraction <= 1.0
        assert record.k_estimate >= 0.0
        assert record.k_applied >= 0.0


class TestFeedbackIntegration:
    def test_observed_violations_inflate_k(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=120)
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        for i, element in enumerate(stream):
            handler.offer(element)
            # Simulate an operator persistently reporting violations.
            if i % 10 == 0:
                handler.observe_error(0.5)
        no_feedback = AQKSlackHandler(
            target=QualityTarget(0.05),
            aggregate=CountAggregate(),
            controller=NoFeedbackController(),
        )
        import numpy as np

        for element in stream:
            no_feedback.offer(element)
        assert handler.k > no_feedback.k


class TestLatencyBudgetMode:
    def test_k_never_exceeds_budget(self, rng):
        stream = make_stream(rng, ExponentialDelay(2.0))
        handler = AQKSlackHandler(
            target=LatencyBudget(1.5), aggregate=CountAggregate()
        )
        drive(handler, stream)
        assert all(record.k_applied <= 1.5 for record in handler.adaptations)

    def test_nearly_ordered_stream_uses_less_than_budget(self, rng):
        stream = make_stream(rng, UniformDelay(0.0, 0.1))
        handler = AQKSlackHandler(
            target=LatencyBudget(5.0), aggregate=CountAggregate()
        )
        drive(handler, stream)
        assert handler.k <= 0.2  # no point buffering 5s for 0.1s delays

    def test_heavy_disorder_saturates_budget(self, rng):
        stream = make_stream(rng, UniformDelay(0.0, 10.0))
        handler = AQKSlackHandler(
            target=LatencyBudget(2.0), aggregate=CountAggregate()
        )
        drive(handler, stream)
        assert handler.k == pytest.approx(2.0, abs=0.01)


class TestValidation:
    def test_requires_arrival_timestamps(self):
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        with pytest.raises(ConfigurationError):
            handler.offer(StreamElement(event_time=1.0, value=0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"adapt_interval": 0.0},
            {"warmup_elements": -1},
            {"k_min": 2.0, "k_max": 1.0},
            {"min_late_fraction": 0.0},
            {"budget_quantile_cap": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AQKSlackHandler(
                target=QualityTarget(0.05), aggregate=CountAggregate(), **kwargs
            )

    def test_error_model_instance_accepted(self):
        from repro.core.estimators import NaiveModel

        handler = AQKSlackHandler(target=QualityTarget(0.05), aggregate=NaiveModel())
        assert handler.error_model.kind == "naive"

    def test_describe_mentions_target(self):
        handler = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        assert "0.05" in handler.describe()


@pytest.mark.parametrize("delay_sample", [SlidingDelaySample, ReservoirSample, P2DelayBank])
class TestPendingSamples:
    """``slack_for`` parks arrivals; the samplers see them when a round is
    due or the list is full — in arrival order, one by one where the sampler
    is order-sensitive (reservoir RNG draws, P-squared markers)."""

    def test_no_round_ever_fires_bounded_and_exact(self, rng, delay_sample):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=30)
        assert len(stream) > 2 * PENDING_FOLD_LIMIT
        handler = AQKSlackHandler(
            QualityTarget(0.05),
            "mean",
            window_size=5.0,
            delay_sample=delay_sample(),
            warmup_elements=len(stream) + 1,
        )
        delays, values, rate = delay_sample(), ValueStatsTracker(), RateTracker()
        longest = 0
        for element in stream:
            handler.offer(element)
            longest = max(longest, len(handler._pending))
            delays.observe(element.delay)
            values.observe(element.value)
            rate.observe(element.event_time)
        assert not handler.adaptations
        assert longest == PENDING_FOLD_LIMIT - 1  # the full list folded inside the call
        handler._fold_pending()
        assert not handler._pending
        assert handler.delay_sample.count == delays.count == len(stream)
        for q in (0.5, 0.9, 0.99, 1.0):
            assert handler.delay_sample.quantile(q) == delays.quantile(q)
        assert handler._value_stats.dispersion == values.dispersion
        assert handler._rate.rate == rate.rate

    def test_missing_arrival_time_raises_from_the_offer_that_carries_it(
        self, rng, delay_sample
    ):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=1)
        handler = AQKSlackHandler(
            QualityTarget(0.05), CountAggregate(), delay_sample=delay_sample()
        )
        for element in stream[:10]:
            handler.offer(element)
        assert len(handler._pending) == 10  # still warming up: no round yet
        with pytest.raises(ConfigurationError):
            handler.offer(StreamElement(event_time=5.0, value=0.0))
        assert len(handler._pending) == 10
        for element in stream[10:]:  # and the rounds after it run
            handler.offer(element)
        assert handler.adaptations


class TestEstimationConfidence:
    def test_confidence_inflates_k_on_small_samples(self, rng):
        stream = make_stream(rng, ExponentialDelay(0.5), duration=30)
        ks = {}
        for z in (0.0, 3.0):
            handler = AQKSlackHandler(
                target=QualityTarget(0.05),
                aggregate=CountAggregate(),
                controller=NoFeedbackController(),
                estimation_confidence=z,
            )
            drive(handler, stream)
            ks[z] = handler.k
        assert ks[3.0] >= ks[0.0]

    def test_confidence_padding_shrinks_with_sample_size(self, rng):
        """With a large sample, z-padding moves the quantile rank little."""
        long_stream = make_stream(rng, ExponentialDelay(0.5), duration=240)
        ks = {}
        for z in (0.0, 2.0):
            handler = AQKSlackHandler(
                target=QualityTarget(0.05),
                aggregate=CountAggregate(),
                controller=NoFeedbackController(),
                estimation_confidence=z,
            )
            drive(handler, long_stream)
            ks[z] = handler.k
        # Well under a factor of two apart once thousands of delays seen.
        assert ks[2.0] <= ks[0.0] * 2.0

    def test_negative_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            AQKSlackHandler(
                target=QualityTarget(0.05),
                aggregate=CountAggregate(),
                estimation_confidence=-1.0,
            )


class TestBoundedQualityMode:
    def test_budget_never_exceeded(self, rng):
        from repro.core.spec import BoundedQualityTarget

        stream = make_stream(rng, ExponentialDelay(2.0), duration=120)
        handler = AQKSlackHandler(
            target=BoundedQualityTarget(0.001, 1.0),
            aggregate=CountAggregate(),
        )
        drive(handler, stream)
        assert handler.adaptations
        assert all(r.k_applied <= 1.0 + 1e-9 for r in handler.adaptations)

    def test_behaves_like_quality_when_budget_slack_unneeded(self, rng):
        from repro.core.spec import BoundedQualityTarget

        stream = make_stream(rng, ExponentialDelay(0.2), duration=120)
        bounded = AQKSlackHandler(
            target=BoundedQualityTarget(0.05, 100.0),
            aggregate=CountAggregate(),
        )
        plain = AQKSlackHandler(
            target=QualityTarget(0.05), aggregate=CountAggregate()
        )
        drive(bounded, stream)
        drive(plain, stream)
        assert bounded.k == pytest.approx(plain.k, rel=0.2, abs=0.05)

    def test_quality_clamped_under_heavy_disorder(self, rng):
        """When the budget cannot buy the target, latency wins."""
        from repro.core.spec import BoundedQualityTarget

        stream = make_stream(rng, UniformDelay(0.0, 10.0), duration=120)
        handler = AQKSlackHandler(
            target=BoundedQualityTarget(0.001, 0.5),
            aggregate=CountAggregate(),
        )
        drive(handler, stream)
        assert handler.k <= 0.5 + 1e-9

    def test_default_controller_attached(self):
        from repro.core.spec import BoundedQualityTarget
        from repro.core.controller import PIController

        handler = AQKSlackHandler(
            target=BoundedQualityTarget(0.05, 1.0), aggregate=CountAggregate()
        )
        assert isinstance(handler.controller, PIController)


class TestContextSensitivity:
    def test_mean_model_reacts_to_value_dispersion(self, rng):
        """Wilder values make the mean aggregate error-prone: K grows."""
        from repro.streams.generators import GaussianValues, generate_stream

        ks = {}
        for label, std in (("calm", 0.1), ("wild", 50.0)):
            base = generate_stream(
                duration=120,
                rate=100,
                rng=rng,
                value_process=GaussianValues(mean=100.0, std=std),
            )
            stream = inject_disorder(base, ExponentialDelay(0.5), rng)
            handler = AQKSlackHandler(
                target=QualityTarget(0.005),
                aggregate=MeanAggregate(),
                window_size=10.0,
                controller=NoFeedbackController(),
            )
            for element in stream:
                handler.offer(element)
            ks[label] = handler.k
        assert ks["wild"] > ks["calm"]

    def test_rate_context_scales_mean_tolerance(self, rng):
        """Denser windows absorb more late mass for mean aggregates."""
        ks = {}
        for label, rate in (("sparse", 5.0), ("dense", 500.0)):
            stream = make_stream(
                rng, ExponentialDelay(0.5), duration=120, rate=rate
            )
            handler = AQKSlackHandler(
                target=QualityTarget(0.01),
                aggregate=MeanAggregate(),
                window_size=10.0,
                controller=NoFeedbackController(),
            )
            for element in stream:
                handler.offer(element)
            ks[label] = handler.k
        assert ks["dense"] <= ks["sparse"]
