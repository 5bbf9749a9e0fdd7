"""Tests for pipeline execution and metrics."""

import math

import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import MeanAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.metrics import LatencySummary
from repro.engine.parallel import ShardedWindowOperator
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError
from tests.conftest import make_arrived


def make_operator(k=0.5):
    return WindowAggregateOperator(
        SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(k)
    )


class TestRunPipeline:
    def test_counts(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator())
        assert output.metrics.n_elements == len(small_disordered_stream)
        assert output.metrics.n_results == len(output.results)
        assert output.metrics.n_results > 0

    def test_wall_time_positive(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator())
        assert output.metrics.wall_time_s > 0
        assert output.metrics.throughput_eps > 0

    def test_slack_timeline_sampled(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator(), sample_every=50)
        assert len(output.metrics.slack_timeline) >= 1
        for sample in output.metrics.slack_timeline:
            assert sample.slack == 0.5
            assert sample.buffered >= 0

    def test_no_sampling_by_default(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator())
        assert output.metrics.slack_timeline == []

    def test_max_buffered_recorded(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator(k=2.0))
        assert output.metrics.max_buffered > 0

    def test_latency_summary_excludes_flushed(self, small_disordered_stream):
        output = run_pipeline(small_disordered_stream, make_operator())
        summary = output.latency_summary()
        assert summary.count == sum(1 for r in output.results if not r.flushed)
        with_flushed = output.latency_summary(include_flushed=True)
        assert with_flushed.count == len(output.results)

    @pytest.mark.parametrize("event_time", [math.nan, math.inf])
    def test_non_finite_timestamp_is_a_typed_error(self, event_time):
        # Rejected where the stream is built, never as a bare ValueError /
        # OverflowError out of the window assigner.
        with pytest.raises(ConfigurationError, match="event_time"):
            stream = make_arrived([(1.0, 1.5, 2.0), (event_time, event_time, 3.0)])
            run_pipeline(stream, make_operator())

    def test_empty_stream(self):
        output = run_pipeline([], make_operator())
        assert output.results == []
        assert output.metrics.n_elements == 0

    @pytest.mark.parametrize(
        "batch_size, shards",
        [(0, 0), (64, 0), (0, 2)],
        ids=["scalar", "batch64", "sharded2"],
    )
    def test_metrics_equal_handler_and_operator_counters(
        self, small_disordered_stream, batch_size, shards
    ):
        # Each RunMetrics field must be read off the counter it names, on
        # every driver path (a frontier stored as max_buffered type-checks).
        if shards:
            operator = ShardedWindowOperator(
                shards,
                SlidingWindowAssigner(5, 1),
                MeanAggregate(),
                lambda: KSlackHandler(0.5),
            )
        else:
            operator = make_operator(k=0.5)
        output = run_pipeline(
            small_disordered_stream, operator, batch_size=batch_size
        )
        metrics, handler = output.metrics, operator.handler
        n = len(small_disordered_stream)
        assert metrics.n_elements == n
        assert metrics.n_results == len(output.results) > 0
        assert metrics.max_buffered == handler.max_buffered_count() > 0
        assert metrics.released_count == handler.released_count() == n
        assert metrics.late_dropped == operator.stats.late_dropped > 0


class TestLatencySummary:
    def test_from_values(self):
        summary = LatencySummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.maximum == 4.0
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum

    def test_empty(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert math.isnan(summary.mean)
