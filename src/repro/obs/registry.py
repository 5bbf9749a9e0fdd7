"""Pluggable metrics: counters, gauges and histograms behind a registry.

:class:`~repro.engine.metrics.RunMetrics` is a *view* over a
:class:`MetricsRegistry`: the pipeline keeps the registry's instruments
current while the run executes, so a caller holding the registry (a
monitoring thread, a progress callback, an operator hook) can sample
throughput, buffer occupancy or late-drop counts **live** instead of
waiting for the run to finish.

Instruments are created on first use and identified by name; asking for an
existing name returns the same instrument (asking with a different type is
a :class:`~repro.errors.ConfigurationError`).  Everything is stdlib-only
and allocation-light: one attribute bump per update.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Union

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing count (resettable only via :meth:`set`)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative amounts are rejected)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (end-of-run snapshot reconciliation)."""
        self.value = value

    def describe(self) -> str:
        """Short label for reports."""
        return f"counter {self.name}={self.value}"


class Gauge:
    """A point-in-time value; tracks its own high-water mark."""

    __slots__ = ("name", "value", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.maximum: float = 0.0

    def set(self, value: float) -> None:
        """Set the current value (and bump the high-water mark)."""
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def describe(self) -> str:
        """Short label for reports."""
        return f"gauge {self.name}={self.value:g} (max {self.maximum:g})"


class Histogram:
    """A distribution of observed samples (NaN samples are dropped).

    Samples are retained, so quantiles are exact; memory is bounded by the
    caller observing a bounded number of samples (one per window result in
    the pipeline's case).
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted = True

    @property
    def count(self) -> int:
        """Number of retained samples."""
        return len(self._samples)

    def observe(self, value: float) -> None:
        """Fold one sample in (NaN is ignored)."""
        if math.isnan(value):
            return
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def observe_many(self, values: list[float]) -> None:
        """Fold a batch of samples in."""
        for value in values:
            self.observe(value)

    def _ordered(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples; NaN when empty."""
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> float:
        """Smallest sample; NaN when empty."""
        return self._ordered()[0] if self._samples else math.nan

    @property
    def maximum(self) -> float:
        """Largest sample; NaN when empty."""
        return self._ordered()[-1] if self._samples else math.nan

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile in [0, 1]; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0,1], got {q}")
        ordered = self._ordered()
        if not ordered:
            return math.nan
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    def summary(self) -> dict[str, float]:
        """Count/mean/p50/p95/max snapshot of the distribution."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": self.maximum,
        }

    def describe(self) -> str:
        """Short label for reports."""
        return f"histogram {self.name} (n={self.count})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-indexed collection of counters, gauges and histograms.

    Registration (``counter``/``gauge``/``histogram``/``get``) is guarded
    by an internal lock so concurrent pipelines can share one registry;
    instrument *updates* stay lock-free single-attribute bumps (each
    instrument has one writer — the pipeline that created it).
    """

    def __init__(self) -> None:
        self._instruments_lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        """Iterate instruments in name order (deterministic)."""
        return iter(
            self._instruments[name] for name in sorted(self._instruments)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def _get_or_create(
        self, name: str, kind: type[Counter] | type[Gauge] | type[Histogram]
    ) -> Instrument:
        with self._instruments_lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                created: Instrument = kind(name)
                self._instruments[name] = created
                return created
        if not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter named ``name``."""
        instrument = self._get_or_create(name, Counter)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge named ``name``."""
        instrument = self._get_or_create(name, Gauge)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram named ``name``."""
        instrument = self._get_or_create(name, Histogram)
        assert isinstance(instrument, Histogram)
        return instrument

    def get(self, name: str) -> Instrument | None:
        """The instrument named ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, object]:
        """Point-in-time values of every instrument, keyed by name.

        Counters and gauges map to their value; histograms to their
        :meth:`~Histogram.summary` dict.  Key order is sorted, so the
        snapshot serializes deterministically.
        """
        out: dict[str, object] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out
