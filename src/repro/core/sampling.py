"""Online samplers and trackers feeding the quality estimator.

The adaptive handler needs three live statistics:

* the **delay distribution** of recent elements (to invert "allowed late
  fraction" into a slack K) — :class:`SlidingDelaySample` (recency-biased,
  robust to regime changes) or :class:`ReservoirSample` (uniform over
  history, used in the sampling ablation);
* the **value dispersion** of the stream (scales the error models of mean
  and rank aggregates) — :class:`ValueStatsTracker`;
* the **event rate** (expected elements per window) —
  :class:`RateTracker`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.numeric import as_real
from repro.errors import ConfigurationError
from repro.streams.timebase import DurationS, EventTimeStamp


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed — or pass through an existing ``Generator``.

    Components that consume randomness accept ``int | Generator`` and route
    it through this helper, so experiments can either give each component an
    independent reproducible seed or thread one shared generator through the
    whole pipeline (the streams layer already takes explicit generators).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class DelaySample:
    """Interface of delay trackers: observe delays, answer quantiles."""

    # The protocol holds no float state; trackers declare their own
    # discipline (lint rule R19).
    __numeric__ = "exact"

    def observe(self, delay: DurationS) -> None:
        """Fold one element delay (seconds, non-negative) into the sample."""
        raise NotImplementedError

    def observe_many(self, delays) -> None:
        """Fold a batch of delays; equivalent to repeated :meth:`observe`.

        Samplers whose per-observation state transition is order-dependent
        beyond "the set of recent values" (e.g. reservoir RNG draws) keep the
        scalar loop so batched and scalar runs stay bit-identical.
        """
        for delay in delays:
            self.observe(delay)

    def quantile(self, q: float) -> float:
        """The q-quantile of the tracked delays (0.0 before any data)."""
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Total delays observed over the sample's lifetime."""
        raise NotImplementedError


class SlidingDelaySample(DelaySample):
    """Keeps the most recent ``capacity`` delays in a ring buffer.

    Quantiles reflect only recent behaviour, so the estimator reacts to
    delay regime changes within one buffer turnover.  Quantile queries sort
    lazily and cache until the next observation.
    """

    __numeric__ = "reassoc-tolerant"  # interpolated quantiles over raw values

    def __init__(self, capacity: int = 2000) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring = np.zeros(capacity, dtype=float)
        self._filled = 0
        self._head = 0
        self._sorted_cache: np.ndarray | None = None
        self._total = 0

    def observe(self, delay: DurationS) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self._ring[self._head] = delay
        self._head = (self._head + 1) % self.capacity
        self._filled = min(self._filled + 1, self.capacity)
        self._total += 1
        self._sorted_cache = None

    def observe_many(self, delays) -> None:
        """Bulk ring write: one cache invalidation for the whole batch.

        The ring always holds the most recent ``capacity`` delays (in some
        rotation), which is the only property quantile/max queries read — so
        this is exactly equivalent to sequential :meth:`observe` calls.
        """
        batch = np.asarray(delays, dtype=float)
        n = int(batch.size)
        if n == 0:
            return
        if np.any(batch < 0):
            raise ConfigurationError("delays must be non-negative")
        capacity = self.capacity
        if n >= capacity:
            self._ring[:] = batch[-capacity:]
            self._head = 0
            self._filled = capacity
        else:
            head = self._head
            first = min(n, capacity - head)
            self._ring[head : head + first] = batch[:first]
            rest = n - first
            if rest:
                self._ring[:rest] = batch[first:]
            self._head = (head + n) % capacity
            self._filled = min(self._filled + n, capacity)
        self._total += n
        self._sorted_cache = None

    def _sorted(self) -> np.ndarray:
        if self._sorted_cache is None:
            self._sorted_cache = np.sort(self._ring[: self._filled])
        return self._sorted_cache

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0,1], got {q}")
        if self._filled == 0:
            return 0.0
        ordered = self._sorted()
        rank = min(self._filled - 1, int(math.ceil(q * self._filled)) - 1)
        return float(ordered[max(rank, 0)])

    @property
    def count(self) -> int:
        return self._total

    @property
    def window_fill(self) -> int:
        return self._filled

    def max_recent(self) -> float:
        """Largest delay currently inside the sliding window."""
        if self._filled == 0:
            return 0.0
        return float(self._ring[: self._filled].max())


class ReservoirSample(DelaySample):
    """Classic reservoir sampling: uniform over the whole stream history.

    Reacts slowly to non-stationary delays — included as the comparison
    point of the sampling ablation (E14).
    """

    __numeric__ = "reassoc-tolerant"  # interpolated quantiles over raw values

    def __init__(
        self, capacity: int = 2000, seed: int | np.random.Generator = 7
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._values: list[float] = []
        self._seen = 0
        self._rng = as_generator(seed)

    def observe(self, delay: DurationS) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self._seen += 1
        if len(self._values) < self.capacity:
            self._values.append(delay)
            return
        index = int(self._rng.integers(0, self._seen))
        if index < self.capacity:
            self._values[index] = delay

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0,1], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(rank, 0)]

    @property
    def count(self) -> int:
        return self._seen


class ValueStatsTracker:
    """EWMA mean / variance of stream values (dispersion for error models).

    Exponentially weighted so dispersion follows the workload; ``alpha`` is
    the per-observation decay.
    """

    __numeric__ = "reassoc-tolerant"  # EWMA contractions; non-finite inputs skipped

    def __init__(self, alpha: float = 0.001) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in (0,1], got {alpha}")
        self.alpha = alpha
        self._mean = 0.0
        self._var = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Fold one stream value in; non-numeric values are ignored."""
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Fold values in order (the EWMA recurrence is sequential);
        non-numeric and non-finite ones are skipped."""
        alpha = self.alpha
        decay = 1 - alpha
        mean, var, count = self._mean, self._var, self._count
        for value in values:
            if type(value) is not float:
                value = as_real(value)
                if value is None:
                    continue
            if math.isnan(value) or math.isinf(value):
                continue
            count += 1
            if count == 1:
                mean, var = float(value), 0.0
                continue
            delta = value - mean
            mean += alpha * delta
            var = decay * (var + alpha * delta * delta)
        self._mean, self._var, self._count = mean, var, count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return math.sqrt(max(self._var, 0.0))

    @property
    def dispersion(self) -> float:
        """Coefficient-of-variation-like ratio ``std / max(|mean|, eps)``."""
        return self.std / max(abs(self._mean), 1e-9)


class RateTracker:
    """Event rate in event time, robust to arrival-order observation.

    Observations arrive in *arrival* order, so consecutive event-time gaps
    say nothing about the rate (they are dominated by the delay spread).
    The tracker therefore estimates rate as ``(count - 1) / event-time
    span``, which is order-invariant; it assumes a roughly stationary rate
    over the stream's lifetime.
    """

    __numeric__ = "exact"  # min/max/count only, no float accumulation

    def __init__(self) -> None:
        self._min_event: float | None = None
        self._max_event: float | None = None
        self._count = 0

    def observe(self, event_time: EventTimeStamp) -> None:
        """Fold one event timestamp into the rate estimate."""
        self._count += 1
        if self._min_event is None or event_time < self._min_event:
            self._min_event = event_time
        if self._max_event is None or event_time > self._max_event:
            self._max_event = event_time

    def observe_many(self, min_event: float, max_event: EventTimeStamp, count: int) -> None:
        """Fold a pre-reduced batch (its min/max timestamp and size) at once."""
        if count <= 0:
            return
        self._count += count
        if self._min_event is None or min_event < self._min_event:
            self._min_event = min_event
        if self._max_event is None or max_event > self._max_event:
            self._max_event = max_event

    @property
    def rate(self) -> float:
        """Events per second of event time; ``nan`` until two distinct
        timestamps have been seen."""
        if self._count < 2 or self._min_event is None:
            return math.nan
        span = self._max_event - self._min_event
        if span <= 0:
            return math.nan
        return (self._count - 1) / span

    def expected_window_count(self, window_size: DurationS) -> float:
        """Expected elements per window of ``window_size`` seconds."""
        rate = self.rate
        if math.isnan(rate):
            return math.nan
        return rate * window_size

