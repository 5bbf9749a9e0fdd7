"""Synthetic workload generation: arrival processes and value processes.

A stream is the composition of

* an **arrival process** deciding *when* events are born (uniform spacing or
  a Poisson process at a given rate),
* a **value process** deciding *what* each event carries (i.i.d. noise,
  random walk, diurnal sinusoid, spikes), and
* an optional set of **keys** interleaved round-robin or uniformly.

Generators produce *in-order* streams; pair them with
:func:`repro.streams.disorder.inject_disorder` to obtain the arrival-ordered
stream an operator sees.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.streams.element import StreamElement


class ValueProcess(ABC):
    """Generates the payload sequence of a stream, one key at a time."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        """Value of the event born at ``event_time`` for ``key``."""

    def reset(self) -> None:
        """Clear any per-run state (random-walk positions etc.)."""


class ConstantValues(ValueProcess):
    """Every event carries the same value — useful for count-style tests."""

    def __init__(self, value: float = 1.0) -> None:
        self.value = value

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        return self.value


class UniformValues(ValueProcess):
    """I.i.d. uniform values in ``[low, high)``."""

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if high < low:
            raise ConfigurationError(f"need low <= high, got [{low}, {high})")
        self.low = low
        self.high = high

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        return float(rng.uniform(self.low, self.high))


class GaussianValues(ValueProcess):
    """I.i.d. Gaussian values."""

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std < 0:
            raise ConfigurationError(f"std must be non-negative, got {std}")
        self.mean = mean
        self.std = std

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        return float(rng.normal(self.mean, self.std))


class RandomWalkValues(ValueProcess):
    """Per-key random walk: ``v <- v + N(drift, volatility)``.

    The default model for financial tick prices in the workload suite.
    """

    def __init__(
        self, start: float = 100.0, drift: float = 0.0, volatility: float = 0.1
    ) -> None:
        if volatility < 0:
            raise ConfigurationError(f"volatility must be non-negative, got {volatility}")
        self.start = start
        self.drift = drift
        self.volatility = volatility
        self._positions: dict[object, float] = {}

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        position = self._positions.get(key, self.start)
        position += float(rng.normal(self.drift, self.volatility))
        self._positions[key] = position
        return position

    def reset(self) -> None:
        self._positions.clear()


class SinusoidValues(ValueProcess):
    """Diurnal-style sinusoid plus Gaussian noise — the sensor model."""

    def __init__(
        self,
        base: float = 20.0,
        amplitude: float = 5.0,
        period: float = 3600.0,
        noise_std: float = 0.5,
        phase_per_key: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.noise_std = noise_std
        self.phase_per_key = phase_per_key

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        # CRC-32, not the builtin hash: string hashing is salted per process,
        # which would move every key's phase from one run to the next.
        phase = (
            self.phase_per_key * (zlib.crc32(repr(key).encode()) % 16)
            if key is not None
            else 0.0
        )
        clean = self.base + self.amplitude * math.sin(
            2 * math.pi * event_time / self.period + phase
        )
        return clean + float(rng.normal(0.0, self.noise_std))


class SpikyValues(ValueProcess):
    """Mostly-flat values with rare large spikes — stresses max/quantiles."""

    def __init__(
        self,
        base: float = 1.0,
        spike_magnitude: float = 100.0,
        spike_probability: float = 0.01,
    ) -> None:
        if not 0.0 <= spike_probability <= 1.0:
            raise ConfigurationError(
                f"spike_probability must lie in [0,1], got {spike_probability}"
            )
        self.base = base
        self.spike_magnitude = spike_magnitude
        self.spike_probability = spike_probability

    def sample(self, rng: np.random.Generator, event_time: float, key: object) -> float:
        if rng.random() < self.spike_probability:
            return self.base + self.spike_magnitude * float(rng.random())
        return self.base + float(rng.normal(0.0, 0.05))


def generate_stream(
    duration: float,
    rate: float,
    rng: np.random.Generator,
    value_process: ValueProcess | None = None,
    keys: Sequence[object] | None = None,
    arrival: str = "poisson",
) -> list[StreamElement]:
    """Generate an in-order stream.

    Args:
        duration: Event-time span in seconds; events are born in
            ``[0, duration)``.
        rate: Mean events per second across all keys.
        rng: Seeded random generator.
        value_process: Payload model; defaults to ``UniformValues(0, 1)``.
        keys: Optional key universe; events are assigned keys uniformly at
            random.  ``None`` produces an unkeyed stream.
        arrival: ``"poisson"`` for exponential inter-arrival gaps or
            ``"uniform"`` for evenly spaced events.

    Returns:
        Elements sorted by event time, without arrival timestamps.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigurationError(f"duration must be positive and finite, got {duration}")
    if not (math.isfinite(rate) and rate > 0):
        raise ConfigurationError(f"rate must be positive and finite, got {rate}")
    if arrival not in ("poisson", "uniform"):
        raise ConfigurationError(f"unknown arrival process {arrival!r}")

    values = value_process if value_process is not None else UniformValues()
    values.reset()

    timestamps: list[float] = []
    if arrival == "uniform":
        gap = 1.0 / rate
        timestamps = [index * gap for index in range(int(duration * rate))]
    else:
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / rate))
            if now >= duration:
                break
            timestamps.append(now)

    elements = []
    for seq, event_time in enumerate(timestamps):
        key = None
        if keys is not None:
            key = keys[int(rng.integers(0, len(keys)))]
        elements.append(
            StreamElement(
                event_time=event_time,
                value=values.sample(rng, event_time, key),
                key=key,
                seq=seq,
            )
        )
    return elements
