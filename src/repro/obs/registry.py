"""Pluggable metrics: counters and gauges behind a registry.

A run handed a :class:`MetricsRegistry` keeps its progress instruments
(elements in, results out, buffer occupancy) current while it executes,
so a caller holding the registry (a monitoring thread, a progress
callback, an operator hook) can sample them **live**; when the run ends
it publishes its :class:`~repro.engine.metrics.RunMetrics` there too.

Instruments are created on first use and identified by name; asking for an
existing name returns the same instrument (asking with a different type is
a :class:`~repro.errors.ConfigurationError`).  Everything is stdlib-only
and allocation-light: one attribute bump per update.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Union

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


Instrument = Union[Counter, Gauge]


class MetricsRegistry:
    """Name-indexed collection of counters and gauges.

    Registration (``counter``/``gauge``/``get``) is guarded
    by an internal lock so concurrent pipelines can share one registry;
    instrument *updates* stay lock-free single-attribute bumps (each
    instrument has one writer — the pipeline that created it).
    """

    def __init__(self) -> None:
        self._instruments_lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def __reduce__(self) -> tuple[Any, ...]:
        # Observers are not state: a snapshot of whatever holds a registry
        # loads without one (``NoneType()`` is ``None``) until set_registry.
        return type(None), ()

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
        self, name: str, kind: type[Counter] | type[Gauge]
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

    def get(self, name: str) -> Instrument | None:
        """The instrument named ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, object]:
        """Point-in-time value of every instrument, keyed by name.

        Key order is sorted, so the snapshot serializes deterministically.
        """
        return {
            name: self._instruments[name].value
            for name in sorted(self._instruments)
        }
