"""RunMetrics as a registry view, and LatencySummary edge cases."""

import math

import pytest

from repro.engine.metrics import METRIC_NAMES, LatencySummary, RunMetrics
from repro.obs.registry import MetricsRegistry


class TestLatencySummary:
    def test_empty_input_is_count_zero_all_nan(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        for field in ("mean", "p50", "p95", "p99", "maximum"):
            assert math.isnan(getattr(summary, field))

    def test_single_value(self):
        summary = LatencySummary.from_values([2.5])
        assert summary.count == 1
        assert summary.mean == 2.5
        assert summary.p50 == 2.5
        assert summary.p95 == 2.5
        assert summary.p99 == 2.5
        assert summary.maximum == 2.5

    def test_nan_values_are_dropped(self):
        summary = LatencySummary.from_values([1.0, math.nan, 3.0])
        assert summary.count == 2
        assert summary.mean == 2.0
        assert summary.maximum == 3.0

    def test_all_nan_behaves_like_empty(self):
        summary = LatencySummary.from_values([math.nan, math.nan])
        assert summary.count == 0
        assert math.isnan(summary.p95)

    def test_percentiles_ordered(self):
        summary = LatencySummary.from_values([float(i) for i in range(100)])
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum


class TestRunMetricsRegistryView:
    def test_default_construction_matches_legacy_behaviour(self):
        metrics = RunMetrics(n_elements=10, n_results=3, wall_time_s=2.0)
        assert metrics.n_elements == 10
        assert metrics.n_results == 3
        assert metrics.throughput_eps == 5.0
        assert metrics.late_dropped == 0
        assert metrics.slack_timeline == []

    def test_fields_are_registry_backed(self):
        registry = MetricsRegistry()
        metrics = RunMetrics(registry)
        metrics.n_elements = 42
        assert registry.counter(METRIC_NAMES["n_elements"]).value == 42
        registry.counter(METRIC_NAMES["late_dropped"]).inc(3)
        assert metrics.late_dropped == 3

    def test_live_registry_values_survive_construction(self):
        """Constructing a view over a mid-flight registry must not reset it."""
        registry = MetricsRegistry()
        registry.counter(METRIC_NAMES["n_elements"]).inc(17)
        registry.gauge(METRIC_NAMES["max_buffered"]).set(9)
        metrics = RunMetrics(registry)
        assert metrics.n_elements == 17
        assert metrics.max_buffered == 9

    def test_nonzero_initializers_overwrite(self):
        registry = MetricsRegistry()
        registry.counter(METRIC_NAMES["n_elements"]).inc(17)
        metrics = RunMetrics(registry, n_elements=100)
        assert metrics.n_elements == 100

    def test_throughput_nan_without_wall_time(self):
        assert math.isnan(RunMetrics(n_elements=5).throughput_eps)

    def test_as_dict_and_repr_cover_scalars(self):
        metrics = RunMetrics(n_elements=2, n_results=1, max_buffered=4)
        payload = metrics.as_dict()
        assert payload["n_elements"] == 2
        assert payload["max_buffered"] == 4
        assert set(payload) == set(METRIC_NAMES)
        assert "n_elements=2" in repr(metrics)

    def test_misspelled_field_raises_at_the_assignment(self):
        """The type, not a lint rule: RunMetrics is slotted."""
        registry = MetricsRegistry()
        metrics = RunMetrics(registry, n_elements=3)
        with pytest.raises(AttributeError):
            metrics.n_element = 4
        with pytest.raises(AttributeError):
            metrics.wall_times_s = 1.0
        assert not hasattr(metrics, "__dict__")
        assert metrics.n_elements == 3
        assert metrics.as_dict()["n_elements"] == 3
        assert "n_elements=3" in repr(metrics)
        registry.counter(METRIC_NAMES["n_results"]).inc(2)
        assert metrics.n_results == 2
