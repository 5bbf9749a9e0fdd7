"""Tests for speculative processing with retractions."""

import numpy as np
import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import CountAggregate, MeanAggregate
from repro.engine.checkpoint import load_checkpoint, save_checkpoint
from repro.engine.handlers import KSlackHandler
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import run_pipeline
from repro.engine.retraction import (
    SpeculativeAggregateOperator,
    final_values,
    initial_latencies,
)
from repro.engine.windows import TumblingWindowAssigner, sliding
from repro.errors import ConfigurationError
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ConstantDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream

from tests.conftest import make_arrived


class TestSpeculativeOperator:
    def test_in_order_stream_emits_no_revisions(self, rng):
        stream = inject_disorder(
            generate_stream(duration=30, rate=40, rng=rng), ConstantDelay(0.0), rng
        )
        operator = SpeculativeAggregateOperator(
            TumblingWindowAssigner(5.0), MeanAggregate()
        )
        output = run_pipeline(stream, operator)
        assert operator.revisions_emitted == 0
        assert all(r.revision == 0 for r in output.results)

    def test_late_element_triggers_revision(self):
        stream = make_arrived(
            [
                (1.0, 1.0, 1.0),
                (12.0, 12.0, 1.0),  # closes [0,10)
                (8.0, 13.0, 1.0),  # late: revision of [0,10)
            ]
        )
        operator = SpeculativeAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate()
        )
        output = run_pipeline(stream, operator)
        revisions = [r for r in output.results if r.revision > 0]
        assert len(revisions) == 1
        assert revisions[0].window.start == 0.0
        assert revisions[0].value == 2.0

    def test_final_values_match_oracle_within_horizon(self, rng):
        stream = inject_disorder(
            generate_stream(duration=60, rate=40, rng=rng), ExponentialDelay(1.0), rng
        )
        assigner = TumblingWindowAssigner(5.0)
        aggregate = CountAggregate()
        operator = SpeculativeAggregateOperator(
            assigner, aggregate, revision_horizon=1000.0
        )
        output = run_pipeline(stream, operator)
        finals = final_values(output.results)
        truth = oracle_results(stream, assigner, aggregate)
        for slot, (exact, __) in truth.items():
            assert finals[slot] == pytest.approx(exact)

    def test_initial_latency_is_low(self, rng):
        stream = inject_disorder(
            generate_stream(duration=60, rate=40, rng=rng), ExponentialDelay(1.0), rng
        )
        operator = SpeculativeAggregateOperator(
            TumblingWindowAssigner(5.0), CountAggregate()
        )
        output = run_pipeline(stream, operator)
        latencies = initial_latencies(output.results)
        assert latencies
        assert sum(latencies) / len(latencies) < 2.0

    def test_revision_threshold_suppresses_noise(self, rng):
        stream = inject_disorder(
            generate_stream(duration=120, rate=50, rng=rng), ExponentialDelay(1.0), rng
        )
        eager = SpeculativeAggregateOperator(
            TumblingWindowAssigner(5.0), CountAggregate(), revision_threshold=0.0
        )
        lazy = SpeculativeAggregateOperator(
            TumblingWindowAssigner(5.0), CountAggregate(), revision_threshold=0.2
        )
        run_pipeline(stream, eager)
        run_pipeline(stream, lazy)
        assert lazy.revisions_emitted < eager.revisions_emitted

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SpeculativeAggregateOperator(
                TumblingWindowAssigner(5.0), CountAggregate(), revision_horizon=-1.0
            )
        with pytest.raises(ConfigurationError):
            SpeculativeAggregateOperator(
                TumblingWindowAssigner(5.0), CountAggregate(), revision_threshold=-0.5
            )

    def test_final_values_last_wins(self):
        stream = make_arrived(
            [
                (1.0, 1.0, 1.0),
                (12.0, 12.0, 1.0),
                (8.0, 13.0, 1.0),
                (9.0, 14.0, 1.0),
            ]
        )
        operator = SpeculativeAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate()
        )
        output = run_pipeline(stream, operator)
        finals = final_values(output.results)
        window_zero = [slot for slot in finals if slot[1].start == 0.0][0]
        assert finals[window_zero] == 3.0


class TestUnderTheDriverSeams:
    """The speculative operator is a window driver: every seam reaches it."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(7)
        base = generate_stream(duration=120, rate=50, rng=rng, keys=("a", "b", "c"))
        return inject_disorder(base, ExponentialDelay(1.0), rng)

    @staticmethod
    def make():
        return SpeculativeAggregateOperator(
            sliding(4, 1), MeanAggregate(), KSlackHandler(0.3),
            revision_horizon=6.0, revision_threshold=0.01,
        )

    def test_sanitized_batched_and_resumed_runs_equal_plain(self, stream, tmp_path):
        plain = run_pipeline(stream, self.make()).results
        assert any(r.revision > 0 for r in plain)
        for seam in ({"sanitize": True}, {"batch_size": 64}):
            assert run_pipeline(stream, self.make(), **seam).results == plain, seam

        operator = self.make()
        half = len(stream) // 2
        head = [r for element in stream[:half] for r in operator.process(element)]
        save_checkpoint(operator, tmp_path / "speculative.ckpt")
        resumed = load_checkpoint(tmp_path / "speculative.ckpt")
        tail = run_pipeline(stream[half:], resumed).results
        assert head + tail == plain
        assert any(r.revision > 0 for r in tail)

    def test_traced_run_records_the_driver_events(self, stream):
        trace = TraceRecorder()
        results = run_pipeline(stream, self.make(), trace=trace).results
        first_emissions = [r for r in results if r.revision == 0]
        closes = list(trace.of_kind("window.close", "window.flush"))
        assert len(closes) == len(first_emissions)
        assert any(trace.of_kind("late.drop"))
        assert any(trace.of_kind("window.retire"))

        naive = WindowAggregateOperator(
            sliding(4, 1), MeanAggregate(), KSlackHandler(0.3), feedback_horizon=6.0
        )
        assert first_emissions == run_pipeline(stream, naive).results
