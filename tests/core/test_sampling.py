"""Tests for online samplers and trackers."""

import math

import numpy as np
import pytest

from repro.core.sampling import (
    RateTracker,
    ReservoirSample,
    SlidingDelaySample,
    ValueStatsTracker,
)
from repro.errors import ConfigurationError


class TestSlidingDelaySample:
    def test_quantiles_of_known_data(self):
        sample = SlidingDelaySample(capacity=100)
        for delay in np.linspace(0, 1, 101):
            sample.observe(float(delay))
        assert sample.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert sample.quantile(0.95) == pytest.approx(0.95, abs=0.05)
        assert sample.quantile(1.0) == pytest.approx(1.0, abs=0.02)

    def test_quantile_monotone_in_q(self, rng):
        sample = SlidingDelaySample(capacity=500)
        for delay in rng.exponential(1.0, size=500):
            sample.observe(float(delay))
        quantiles = [sample.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_recency_window_evicts_old(self):
        sample = SlidingDelaySample(capacity=10)
        for __ in range(10):
            sample.observe(100.0)
        for __ in range(10):
            sample.observe(1.0)
        # Old large delays fully evicted.
        assert sample.quantile(1.0) == 1.0

    def test_empty_quantile_is_zero(self):
        assert SlidingDelaySample().quantile(0.9) == 0.0

    def test_count_is_total_not_window(self):
        sample = SlidingDelaySample(capacity=5)
        for __ in range(12):
            sample.observe(1.0)
        assert sample.count == 12
        assert sample.window_fill == 5

    def test_max_recent(self):
        sample = SlidingDelaySample(capacity=5)
        sample.observe(3.0)
        sample.observe(7.0)
        assert sample.max_recent() == 7.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingDelaySample().observe(-1.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingDelaySample(capacity=0)

    def test_bad_q_rejected(self):
        sample = SlidingDelaySample()
        sample.observe(1.0)
        with pytest.raises(ConfigurationError):
            sample.quantile(1.5)


class TestReservoirSample:
    def test_quantiles_of_known_data(self):
        sample = ReservoirSample(capacity=1000)
        for delay in np.linspace(0, 1, 500):
            sample.observe(float(delay))
        assert sample.quantile(0.5) == pytest.approx(0.5, abs=0.05)

    def test_keeps_uniform_history(self):
        """Unlike the sliding sample, the reservoir remembers old regimes."""
        sample = ReservoirSample(capacity=200, seed=1)
        for __ in range(500):
            sample.observe(10.0)
        for __ in range(500):
            sample.observe(1.0)
        # Roughly half the reservoir should still be from the old regime.
        assert sample.quantile(0.9) == 10.0

    def test_count(self):
        sample = ReservoirSample(capacity=5)
        for __ in range(9):
            sample.observe(1.0)
        assert sample.count == 9

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirSample().observe(-0.5)

    def test_empty_quantile_is_zero(self):
        assert ReservoirSample().quantile(0.5) == 0.0


class TestValueStatsTracker:
    def test_tracks_mean_and_std(self, rng):
        tracker = ValueStatsTracker(alpha=0.01)
        for value in rng.normal(50.0, 5.0, size=20000):
            tracker.observe(float(value))
        assert tracker.mean == pytest.approx(50.0, rel=0.05)
        assert tracker.std == pytest.approx(5.0, rel=0.25)
        assert tracker.dispersion == pytest.approx(0.1, rel=0.3)

    def test_ignores_non_numeric(self):
        tracker = ValueStatsTracker()
        tracker.observe("not a number")  # type: ignore[arg-type]
        tracker.observe(math.nan)
        tracker.observe(math.inf)
        assert tracker.count == 0

    @pytest.mark.parametrize(
        "python_type, numpy_type",
        [(int, np.int64), (int, np.int32), (float, np.float32), (float, np.float64)],
        ids=["int64", "int32", "float32", "float64"],
    )
    def test_numpy_scalars_count_as_numbers(self, rng, python_type, numpy_type):
        """What indexing an array yields folds like the Python value it equals."""
        raw = [numpy_type(value) for value in rng.uniform(0.0, 40.0, size=100)]
        as_numpy, as_python = ValueStatsTracker(), ValueStatsTracker()
        for value in raw:
            as_numpy.observe(value)
            as_python.observe(python_type(value))
        assert as_numpy.count == as_python.count == 100
        assert as_numpy.mean == as_python.mean
        assert as_numpy.dispersion == as_python.dispersion > 0.0
        as_numpy.observe(np.float32("nan"))
        as_numpy.observe(np.bool_(True))
        as_numpy.observe(True)
        assert as_numpy.count == 100

    def test_single_value(self):
        tracker = ValueStatsTracker()
        tracker.observe(5.0)
        assert tracker.mean == 5.0
        assert tracker.std == 0.0

    def test_dispersion_guards_zero_mean(self):
        tracker = ValueStatsTracker()
        tracker.observe(0.0)
        assert tracker.dispersion >= 0.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            ValueStatsTracker(alpha=0.0)


class TestRateTracker:
    def test_uniform_rate_recovered(self):
        tracker = RateTracker()
        for i in range(200):
            tracker.observe(i * 0.1)  # 10 events per second
        assert tracker.rate == pytest.approx(10.0, rel=0.05)

    def test_expected_window_count(self):
        tracker = RateTracker()
        for i in range(200):
            tracker.observe(i * 0.1)
        assert tracker.expected_window_count(5.0) == pytest.approx(50.0, rel=0.05)

    def test_nan_before_two_events(self):
        tracker = RateTracker()
        assert math.isnan(tracker.rate)
        tracker.observe(1.0)
        assert math.isnan(tracker.rate)
        assert math.isnan(tracker.expected_window_count(5.0))

    def test_rate_is_order_invariant(self, rng):
        """The estimate must not depend on observation order (disorder)."""
        times = list(rng.random(500) * 50.0)
        forward = RateTracker()
        for t_ in sorted(times):
            forward.observe(t_)
        shuffled = RateTracker()
        for t_ in times:
            shuffled.observe(t_)
        assert shuffled.rate == pytest.approx(forward.rate)

    def test_identical_timestamps_give_nan(self):
        tracker = RateTracker()
        tracker.observe(1.0)
        tracker.observe(1.0)
        assert math.isnan(tracker.rate)


class TestP2DelayBank:
    def test_quantiles_of_known_distribution(self, rng):
        import math

        from repro.core.sampling import P2DelayBank

        bank = P2DelayBank()
        for delay in rng.exponential(1.0, size=20000):
            bank.observe(float(delay))
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = -math.log(1 - q)
            assert bank.quantile(q) == pytest.approx(exact, rel=0.15)

    def test_interpolates_between_grid_points(self, rng):
        from repro.core.sampling import P2DelayBank

        bank = P2DelayBank()
        for delay in rng.random(5000):
            bank.observe(float(delay))
        # 0.85 lies between grid points 0.8 and 0.9.
        assert bank.quantile(0.8) <= bank.quantile(0.85) <= bank.quantile(0.9)

    def test_extremes(self, rng):
        from repro.core.sampling import P2DelayBank

        bank = P2DelayBank()
        for delay in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            bank.observe(delay)
        assert bank.quantile(0.0) == 1.0
        assert bank.quantile(1.0) == 6.0

    def test_empty_is_zero(self):
        from repro.core.sampling import P2DelayBank

        assert P2DelayBank().quantile(0.9) == 0.0

    def test_count(self):
        from repro.core.sampling import P2DelayBank

        bank = P2DelayBank()
        for __ in range(7):
            bank.observe(1.0)
        assert bank.count == 7

    def test_bad_grid_rejected(self):
        from repro.core.sampling import P2DelayBank

        with pytest.raises(ConfigurationError):
            P2DelayBank(grid=())
        with pytest.raises(ConfigurationError):
            P2DelayBank(grid=(0.9, 0.5))
        with pytest.raises(ConfigurationError):
            P2DelayBank(grid=(0.0, 0.5))

    def test_negative_delay_rejected(self):
        from repro.core.sampling import P2DelayBank

        with pytest.raises(ConfigurationError):
            P2DelayBank().observe(-0.1)

    def test_usable_as_aqk_delay_sample(self, rng):
        """The O(1)-memory bank drops into the adaptive handler."""
        from repro.core.aqk import AQKSlackHandler
        from repro.core.sampling import P2DelayBank
        from repro.core.spec import QualityTarget
        from repro.engine.aggregates import CountAggregate
        from repro.streams.delay import ExponentialDelay
        from repro.streams.disorder import inject_disorder
        from repro.streams.generators import generate_stream

        stream = inject_disorder(
            generate_stream(duration=60, rate=50, rng=rng),
            ExponentialDelay(0.5),
            rng,
        )
        handler = AQKSlackHandler(
            target=QualityTarget(0.05),
            aggregate=CountAggregate(),
            delay_sample=P2DelayBank(),
        )
        for element in stream:
            handler.offer(element)
        assert handler.adaptations
        assert handler.k >= 0.0
