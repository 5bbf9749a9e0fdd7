"""Semantics of the metrics registry and its instruments."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)
        assert counter.value == 0

    def test_set_overwrites(self):
        counter = Counter("c")
        counter.inc(10)
        counter.set(3)
        assert counter.value == 3


class TestGauge:
    def test_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(2.0)
        gauge.set(7.5)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.maximum == 7.5


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("pipeline.elements_in")
        second = registry.counter("pipeline.elements_in")
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        registry.gauge("y")
        with pytest.raises(ConfigurationError):
            registry.counter("y")

    def test_iteration_is_name_ordered(self):
        registry = MetricsRegistry()
        registry.counter("zebra")
        registry.gauge("alpha")
        registry.counter("mid")
        assert [instrument.name for instrument in registry] == [
            "alpha",
            "mid",
            "zebra",
        ]

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.counter("c")
        assert "c" in registry
        assert "missing" not in registry
        assert registry.get("c") is registry.counter("c")
        assert registry.get("missing") is None

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        snapshot = registry.snapshot()
        assert snapshot == {"c": 2, "g": 1.5}
        assert list(snapshot) == ["c", "g"]
