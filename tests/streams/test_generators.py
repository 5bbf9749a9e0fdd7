"""Tests for workload generation (arrival and value processes)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streams.generators import (
    ConstantValues,
    GaussianValues,
    RandomWalkValues,
    SinusoidValues,
    SpikyValues,
    UniformValues,
    generate_stream,
)


class TestGenerateStream:
    def test_uniform_arrivals_exact_count(self, rng):
        elements = generate_stream(duration=10, rate=5, rng=rng, arrival="uniform")
        assert len(elements) == 50

    def test_uniform_arrivals_evenly_spaced(self, rng):
        elements = generate_stream(duration=2, rate=4, rng=rng, arrival="uniform")
        gaps = [
            b.event_time - a.event_time for a, b in zip(elements, elements[1:])
        ]
        assert all(gap == pytest.approx(0.25) for gap in gaps)

    def test_poisson_arrivals_approximate_count(self, rng):
        elements = generate_stream(duration=100, rate=50, rng=rng, arrival="poisson")
        assert 4200 <= len(elements) <= 5800

    def test_event_times_within_duration(self, rng):
        elements = generate_stream(duration=10, rate=20, rng=rng)
        assert all(0 <= el.event_time < 10 for el in elements)

    def test_in_event_order(self, rng):
        elements = generate_stream(duration=10, rate=20, rng=rng)
        times = [el.event_time for el in elements]
        assert times == sorted(times)

    def test_seq_is_sequential(self, rng):
        elements = generate_stream(duration=5, rate=10, rng=rng)
        assert [el.seq for el in elements] == list(range(len(elements)))

    def test_unkeyed_by_default(self, rng):
        elements = generate_stream(duration=5, rate=10, rng=rng)
        assert all(el.key is None for el in elements)

    def test_keys_sampled_from_universe(self, rng):
        keys = ("a", "b", "c")
        elements = generate_stream(duration=20, rate=20, rng=rng, keys=keys)
        seen = {el.key for el in elements}
        assert seen <= set(keys)
        assert len(seen) == 3  # all keys appear at this volume

    def test_no_arrival_times_assigned(self, rng):
        elements = generate_stream(duration=5, rate=10, rng=rng)
        assert all(el.arrival_time is None for el in elements)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0, "rate": 1},
            {"duration": 10, "rate": 0},
            {"duration": 10, "rate": 5, "arrival": "bogus"},
            # Non-finite sizes: the arrival loop would never reach them.
            {"duration": float("nan"), "rate": 1},
            {"duration": float("inf"), "rate": 1},
            {"duration": 10, "rate": float("inf")},
            {"duration": 10, "rate": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, rng, kwargs):
        with pytest.raises(ConfigurationError):
            generate_stream(rng=rng, **kwargs)

    def test_deterministic_given_seed(self):
        a = generate_stream(duration=10, rate=10, rng=np.random.default_rng(3))
        b = generate_stream(duration=10, rate=10, rng=np.random.default_rng(3))
        assert a == b


class TestValueProcesses:
    def test_constant(self, rng):
        process = ConstantValues(7.0)
        assert process.sample(rng, 0.0, None) == 7.0

    def test_uniform_bounds(self, rng):
        process = UniformValues(2.0, 3.0)
        for __ in range(100):
            assert 2.0 <= process.sample(rng, 0.0, None) < 3.0

    def test_uniform_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformValues(3.0, 2.0)

    def test_gaussian_stats(self, rng):
        process = GaussianValues(mean=5.0, std=0.5)
        samples = [process.sample(rng, 0.0, None) for __ in range(5000)]
        assert np.mean(samples) == pytest.approx(5.0, abs=0.1)
        assert np.std(samples) == pytest.approx(0.5, abs=0.05)

    def test_gaussian_negative_std_rejected(self):
        with pytest.raises(ConfigurationError):
            GaussianValues(0.0, -1.0)

    def test_random_walk_is_continuous(self, rng):
        process = RandomWalkValues(start=100.0, volatility=0.1)
        previous = process.sample(rng, 0.0, "k")
        for __ in range(50):
            current = process.sample(rng, 0.0, "k")
            assert abs(current - previous) < 1.0  # ~10 sigma
            previous = current

    def test_random_walk_per_key_state(self, rng):
        process = RandomWalkValues(start=100.0, volatility=0.0, drift=1.0)
        assert process.sample(rng, 0.0, "a") == pytest.approx(101.0)
        assert process.sample(rng, 0.0, "b") == pytest.approx(101.0)
        assert process.sample(rng, 0.0, "a") == pytest.approx(102.0)

    def test_random_walk_reset(self, rng):
        process = RandomWalkValues(start=10.0, volatility=0.0, drift=1.0)
        process.sample(rng, 0.0, "a")
        process.reset()
        assert process.sample(rng, 0.0, "a") == pytest.approx(11.0)

    def test_sinusoid_within_envelope(self, rng):
        process = SinusoidValues(base=20.0, amplitude=5.0, period=60.0, noise_std=0.0)
        for t in np.linspace(0, 120, 50):
            value = process.sample(rng, float(t), None)
            assert 15.0 <= value <= 25.0

    def test_sinusoid_bad_period(self):
        with pytest.raises(ConfigurationError):
            SinusoidValues(period=0.0)

    def test_spiky_produces_spikes(self, rng):
        process = SpikyValues(base=1.0, spike_magnitude=100.0, spike_probability=0.2)
        samples = [process.sample(rng, 0.0, None) for __ in range(500)]
        assert max(samples) > 10.0
        assert min(samples) < 2.0

    def test_spiky_bad_probability(self):
        with pytest.raises(ConfigurationError):
            SpikyValues(spike_probability=1.5)
