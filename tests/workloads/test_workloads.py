"""Tests for the synthetic domain workloads."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.streams.disorder import measure_disorder
from repro.streams.element import ensure_arrival_order
from repro.workloads.financial import (
    DEFAULT_SYMBOLS,
    financial_delay_model,
    financial_ticks,
)
from repro.workloads.sensors import sensor_delay_model, sensor_readings
from repro.workloads.soccer import (
    PlayerSpeedValues,
    distance_covered,
    soccer_delay_model,
    soccer_positions,
)


class TestFinancialWorkload:
    def test_arrival_ordered(self, rng):
        stream = financial_ticks(duration=30, rate=50, rng=rng)
        ensure_arrival_order(stream)

    def test_keys_are_symbols(self, rng):
        stream = financial_ticks(duration=30, rate=50, rng=rng)
        assert {el.key for el in stream} <= set(DEFAULT_SYMBOLS)

    def test_prices_near_start(self, rng):
        stream = financial_ticks(duration=30, rate=50, rng=rng, volatility=0.01)
        for el in stream:
            assert 90.0 < el.value < 110.0

    def test_delays_heavy_tailed(self, rng):
        stream = financial_ticks(duration=120, rate=100, rng=rng)
        stats = measure_disorder(stream)
        assert stats.out_of_order_fraction > 0.0
        # The 5% Pareto component stretches the tail well past the median.
        assert stats.p99_delay > 5 * stats.p50_delay

    def test_custom_delay_model(self, rng):
        from repro.streams.delay import ConstantDelay

        stream = financial_ticks(
            duration=10, rate=20, rng=rng, delay_model=ConstantDelay(0.1)
        )
        stats = measure_disorder(stream)
        assert stats.out_of_order_fraction == 0.0

    def test_delay_model_mean(self, rng):
        model = financial_delay_model(fast_mean=0.1, slow_scale=1.0, slow_shape=2.0)
        samples = [model.sample(rng, 0.0) for __ in range(20000)]
        assert np.mean(samples) == pytest.approx(model.mean(), rel=0.25)


class TestSensorWorkload:
    def test_arrival_ordered(self, rng):
        stream = sensor_readings(duration=30, rate=50, rng=rng)
        ensure_arrival_order(stream)

    def test_key_universe(self, rng):
        stream = sensor_readings(duration=60, rate=100, rng=rng, n_sensors=4)
        assert {el.key for el in stream} == {f"sensor-{i}" for i in range(4)}

    def test_values_in_physical_envelope(self, rng):
        stream = sensor_readings(duration=30, rate=50, rng=rng, noise_std=0.1)
        for el in stream:
            assert 10.0 < el.value < 30.0

    def test_burst_model_spikes_delays(self, rng):
        model = sensor_delay_model(burst_start=10.0, burst_end=20.0, burst_mu=2.0)
        calm = [model.sample(rng, 5.0) for __ in range(500)]
        burst = [model.sample(rng, 15.0) for __ in range(500)]
        assert np.median(burst) > 5 * np.median(calm)

    def test_stream_does_not_depend_on_the_hash_seed(self):
        """Each sensor's phase comes from a stable hash of its key: two
        interpreters with different hash seeds generate the same stream."""
        script = (
            "import numpy as np\n"
            "from repro.workloads import sensor_readings\n"
            "stream = sensor_readings(duration=30, rate=50, rng=np.random.default_rng(3))\n"
            "print([(el.key, el.event_time, el.arrival_time, el.value) for el in stream])\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True, timeout=300,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].count("sensor-") > 1000


class TestSoccerWorkload:
    def test_arrival_ordered(self, rng):
        stream = soccer_positions(duration=30, rate=100, rng=rng)
        ensure_arrival_order(stream)

    def test_speeds_bounded(self, rng):
        stream = soccer_positions(duration=30, rate=100, rng=rng)
        for el in stream:
            assert 0.0 <= el.value <= 9.0

    def test_player_keys(self, rng):
        stream = soccer_positions(duration=60, rate=200, rng=rng, n_players=5)
        assert {el.key for el in stream} == {f"player-{i}" for i in range(5)}

    def test_speed_process_is_smooth(self, rng):
        process = PlayerSpeedValues()
        previous = process.sample(rng, 0.0, "p")
        for __ in range(100):
            current = process.sample(rng, 0.0, "p")
            assert abs(current - previous) < 2.5
            previous = current

    def test_reset_clears_state(self, rng):
        process = PlayerSpeedValues()
        for __ in range(50):
            process.sample(rng, 0.0, "p")
        process.reset()
        assert process.sample(rng, 0.0, "p") <= 3.0  # back near the 1.0 start

    def test_dropout_model_bimodal(self, rng):
        model = soccer_delay_model(dropout_weight=0.5, dropout_max=2.0)
        samples = [model.sample(rng, 0.0) for __ in range(1000)]
        assert min(samples) < 0.06
        assert max(samples) > 0.5

    def test_distance_covered_positive(self, rng):
        stream = soccer_positions(duration=30, rate=100, rng=rng)
        assert distance_covered(stream) > 0.0

    def test_distance_covered_empty(self):
        assert distance_covered([]) == 0.0
