"""RunMetrics, what a run publishes into a registry, and LatencySummary
edge cases."""

import math

import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import MeanAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.metrics import METRIC_NAMES, LatencySummary, RunMetrics
from repro.engine.operator import Operator
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
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


class RecordingOperator(Operator):
    """Delegates to ``inner`` and reads the registry's progress counter
    after every chunk it is handed."""

    def __init__(self, inner, registry):
        self.inner = inner
        self.handler = inner.handler
        self.stats = inner.stats
        self._elements_in = registry.counter("pipeline.elements_in")
        self.seen = []

    def process(self, element):
        self.seen.append(self._elements_in.value)
        return self.inner.process(element)

    def process_many(self, elements):
        self.seen.append(self._elements_in.value)
        return self.inner.process_many(elements)

    def finish(self):
        self.seen.append(self._elements_in.value)
        return self.inner.finish()


def make_operator():
    return WindowAggregateOperator(
        SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(1.0)
    )


class TestRunMetricsRegistryView:
    def test_default_construction_matches_legacy_behaviour(self):
        metrics = RunMetrics(n_elements=10, n_results=3, wall_time_s=2.0)
        assert metrics.n_elements == 10
        assert metrics.n_results == 3
        assert metrics.throughput_eps == 5.0
        assert metrics.late_dropped == 0

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
        metrics = RunMetrics(n_elements=3)
        with pytest.raises(AttributeError):
            metrics.n_element = 4
        with pytest.raises(AttributeError):
            metrics.wall_times_s = 1.0
        assert not hasattr(metrics, "__dict__")
        assert metrics.n_elements == 3
        assert metrics.as_dict()["n_elements"] == 3
        assert "n_elements=3" in repr(metrics)

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batch64"])
    def test_elements_in_rises_during_a_run(self, small_disordered_stream, batch_size):
        registry = MetricsRegistry()
        operator = RecordingOperator(make_operator(), registry)
        run_pipeline(
            small_disordered_stream, operator, batch_size=batch_size, registry=registry
        )
        step = batch_size or 1
        n = len(small_disordered_stream)
        assert operator.seen == [*range(0, n, step), n]

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batch64"])
    def test_registry_holds_the_run_metrics_after_the_run(
        self, small_disordered_stream, batch_size
    ):
        registry = MetricsRegistry()
        output = run_pipeline(
            small_disordered_stream, make_operator(), batch_size=batch_size,
            registry=registry,
        )
        published = {
            field: registry.get(name).value for field, name in METRIC_NAMES.items()
        }
        assert published == output.metrics.as_dict()
        assert output.metrics.late_dropped > 0
