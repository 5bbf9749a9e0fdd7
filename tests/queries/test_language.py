"""Tests for the fluent query API."""

import pytest

from repro.core.aqk import AQKSlackHandler
from repro.engine.handlers import (
    KSlackHandler,
    MPKSlackHandler,
    NoBufferHandler,
)
from repro.engine.watermarks import FixedLagWatermarkHandler
from repro.engine.windows import sliding, tumbling
from repro.errors import QueryError
from repro.queries.language import ContinuousQuery


def base_query(stream):
    return (
        ContinuousQuery()
        .from_elements(stream)
        .window(sliding(5, 1))
        .aggregate("mean")
    )


class TestBuilderValidation:
    def test_missing_source(self):
        query = ContinuousQuery().window(sliding(5, 1)).aggregate("mean")
        query.without_buffering()
        with pytest.raises(QueryError):
            query.run()

    def test_missing_window(self, small_disordered_stream):
        query = (
            ContinuousQuery()
            .from_elements(small_disordered_stream)
            .aggregate("mean")
            .without_buffering()
        )
        with pytest.raises(QueryError):
            query.run()

    def test_missing_aggregate(self, small_disordered_stream):
        query = (
            ContinuousQuery()
            .from_elements(small_disordered_stream)
            .window(sliding(5, 1))
            .without_buffering()
        )
        with pytest.raises(QueryError):
            query.run()

    def test_missing_handler(self, small_disordered_stream):
        with pytest.raises(QueryError):
            base_query(small_disordered_stream).run()

    def test_double_handler_rejected(self, small_disordered_stream):
        query = base_query(small_disordered_stream).without_buffering()
        with pytest.raises(QueryError):
            query.with_slack(1.0)


class TestHandlerClauses:
    def test_with_quality(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_quality(0.05).run()
        assert isinstance(run.handler, AQKSlackHandler)
        assert run.results

    def test_with_latency_budget(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_latency_budget(1.0).run()
        assert isinstance(run.handler, AQKSlackHandler)
        assert run.handler.current_slack <= 1.0

    def test_with_slack(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_slack(1.5).run()
        assert isinstance(run.handler, KSlackHandler)
        assert run.handler.k == 1.5

    def test_with_max_delay_slack(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_max_delay_slack().run()
        assert isinstance(run.handler, MPKSlackHandler)

    def test_with_watermark(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_watermark(lag=1.0).run()
        assert isinstance(run.handler, FixedLagWatermarkHandler)

    def test_without_buffering(self, small_disordered_stream):
        run = base_query(small_disordered_stream).without_buffering().run()
        assert isinstance(run.handler, NoBufferHandler)

    def test_with_external_handler(self, small_disordered_stream):
        handler = KSlackHandler(0.7)
        run = base_query(small_disordered_stream).with_handler(handler).run()
        assert run.handler is handler


class TestRunResults:
    def test_assess_attaches_report(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_quality(0.05).run(assess=True)
        assert run.report is not None
        assert run.report.threshold == 0.05
        assert run.report.n_oracle_windows > 0

    def test_no_report_by_default(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_quality(0.05).run()
        assert run.report is None

    def test_explicit_threshold_overrides(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_slack(1.0)
            .run(assess=True, threshold=0.1)
        )
        assert run.report.threshold == 0.1

    def test_latency_summary_shortcut(self, small_disordered_stream):
        run = base_query(small_disordered_stream).with_slack(1.0).run()
        assert run.latency.count > 0
        assert run.latency.mean >= 0.0

    def test_aggregate_instance_accepted(self, small_disordered_stream):
        from repro.engine.aggregates import MaxAggregate

        run = (
            ContinuousQuery()
            .from_elements(small_disordered_stream)
            .window(tumbling(5))
            .aggregate(MaxAggregate())
            .without_buffering()
            .run()
        )
        assert run.results

    def test_quality_clause_passes_kwargs(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_quality(0.05, warmup_elements=10, adapt_interval=0.25)
            .run()
        )
        assert run.handler.warmup_elements == 10
        assert run.handler.adapt_interval == 0.25


class TestSlicedExecution:
    """The slice store through the builder (``mode="tree"``, once ``"sliced"``)."""

    def test_removed_sliced_mode_names_the_survivor(self):
        from repro.errors import ConfigurationError
        from repro.queries.language import ContinuousQuery

        with pytest.raises(ConfigurationError, match='use mode="tree"'):
            ContinuousQuery().mode("sliced")

    def test_sliced_matches_default(self, small_disordered_stream):
        default = base_query(small_disordered_stream).with_slack(1.0).run()
        from repro.queries.language import ContinuousQuery
        from repro.engine.windows import sliding as sliding_ctor

        sliced = (
            ContinuousQuery()
            .from_elements(small_disordered_stream)
            .window(sliding_ctor(5, 1))
            .aggregate("mean")
            .with_slack(1.0)
            .mode("tree")
            .run()
        )
        default_map = {(r.key, r.window): r.value for r in default.results}
        sliced_map = {(r.key, r.window): r.value for r in sliced.results}
        assert set(default_map) == set(sliced_map)
        for slot, value in default_map.items():
            assert sliced_map[slot] == pytest.approx(value)

    def test_sliced_operator_type(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_slack(1.0)
            .mode("tree")
            .run()
        )
        assert run.operator.mode == "tree"

    def test_sliced_with_quality_target(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_quality(0.1)
            .mode("tree")
            .run(assess=True)
        )
        assert run.report.mean_error < 0.5


class TestShardedExecution:
    def test_shards_matches_unsharded_values(self, small_disordered_stream):
        # The fixture stream is unkeyed (round-robin routing), so use a
        # slack under which nothing is late: with late drops a sharded
        # run may legitimately keep elements the unsharded run dropped.
        k = (
            max(
                e.arrival_time - e.event_time
                for e in small_disordered_stream
            )
            + 1e-6
        )
        base = base_query(small_disordered_stream).with_slack(k).run()
        sharded = (
            base_query(small_disordered_stream)
            .with_slack(k)
            .shards(3)
            .run()
        )
        base_map = {(r.key, r.window): r.value for r in base.results}
        sharded_map = {(r.key, r.window): r.value for r in sharded.results}
        assert set(base_map) == set(sharded_map)
        for slot, value in base_map.items():
            assert sharded_map[slot] == pytest.approx(value, rel=1e-9)

    def test_shards_builds_sharded_operator(self, small_disordered_stream):
        from repro.engine.parallel import ShardedWindowOperator

        run = (
            base_query(small_disordered_stream)
            .with_slack(1.0)
            .shards(2)
            .mode("tree")
            .run()
        )
        assert isinstance(run.operator, ShardedWindowOperator)
        assert run.handler.describe().startswith("sharded(2)x")

    def test_shards_with_custom_key(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_slack(1.0)
            .shards(4, key=lambda e: int(e.event_time) % 4)
            .run()
        )
        assert run.results

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "four", True])
    def test_invalid_shard_count_rejected(self, bad):
        with pytest.raises(QueryError):
            ContinuousQuery().shards(bad)

    def test_handler_instance_cannot_be_sharded(self, small_disordered_stream):
        query = (
            base_query(small_disordered_stream)
            .with_handler(KSlackHandler(1.0))
            .shards(2)
        )
        with pytest.raises(QueryError, match="fresh handler per shard"):
            query.run()

    def test_handler_instance_allows_single_shard(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_handler(KSlackHandler(1.0))
            .shards(1)
            .run()
        )
        assert run.results

    def test_shards_with_quality_clause(self, small_disordered_stream):
        run = (
            base_query(small_disordered_stream)
            .with_quality(0.1)
            .shards(2)
            .run(assess=True)
        )
        assert run.report is not None
        assert run.report.mean_error < 0.5
