"""Slice-store execution (``mode="tree"``): parity rows and specifics.

The contract is semantic equivalence with the naive operator.  Every
``*_match_naive`` test is one row of the mode-parity matrix
(``assert_modes_match_naive``: the slice store, scalar and batched,
against the scalar naive reference); ``tests/engine/test_partial_tree.py``
holds the remaining rows.  (The file and its ids keep the name of the
former ``mode="sliced"``, whose slice store ``tree`` is.)
"""

import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
    SumAggregate,
)
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner, TumblingWindowAssigner
from repro.errors import ConfigurationError
from tests.conftest import assert_modes_match_naive
from tests.conftest import disordered_stream as make_stream


class TestEquivalence:
    @pytest.mark.parametrize(
        "aggregate_factory",
        [CountAggregate, SumAggregate, MeanAggregate, MaxAggregate, MedianAggregate],
        ids=["count", "sum", "mean", "max", "median"],
    )
    def test_aggregates_match_naive(self, rng, aggregate_factory):
        stream = make_stream(rng)
        assert_modes_match_naive(
            stream,
            SlidingWindowAssigner(10, 2),
            aggregate_factory,
            lambda: KSlackHandler(1.0),
        )

    @pytest.mark.parametrize(
        "handler_factory",
        [NoBufferHandler, lambda: KSlackHandler(0.25), MPKSlackHandler],
        ids=["no-buffer", "k-slack", "mp-k-slack"],
    )
    def test_handlers_match_naive(self, rng, handler_factory):
        stream = make_stream(rng, mean_delay=1.0)
        assert_modes_match_naive(
            stream, SlidingWindowAssigner(10, 2), CountAggregate, handler_factory
        )

    def test_tumbling_windows(self, rng):
        stream = make_stream(rng)
        assert_modes_match_naive(
            stream, TumblingWindowAssigner(5.0), SumAggregate, lambda: KSlackHandler(0.5)
        )

    def test_keyed_streams(self, rng):
        stream = make_stream(rng, keys=("a", "b", "c"))
        assert_modes_match_naive(
            stream,
            SlidingWindowAssigner(10, 2),
            MeanAggregate,
            lambda: KSlackHandler(0.5),
        )

    def test_observed_errors_match_for_emitted_windows(self, rng):
        """Feedback samples agree for windows both stores emitted."""
        stream = make_stream(rng, duration=120, mean_delay=1.0)
        operators = assert_modes_match_naive(
            stream,
            SlidingWindowAssigner(10, 2),
            CountAggregate,
            NoBufferHandler,
            feedback_horizon=20.0,
        )
        # Slice stores omit missed-window (phantom) samples, so compare
        # only the overall magnitude.
        naive_errors = operators["naive", 0].stats.observed_errors
        sliced_errors = operators["tree", 0].stats.observed_errors
        naive_mean = sum(naive_errors) / len(naive_errors)
        sliced_mean = sum(sliced_errors) / len(sliced_errors)
        assert sliced_mean == pytest.approx(naive_mean, abs=0.02)


class TestSlicedSpecifics:
    def test_unaligned_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowAggregateOperator(
                SlidingWindowAssigner(10, 3),
                CountAggregate(),
                NoBufferHandler(),
                mode="tree",
            )

    def test_session_style_assigner_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowAggregateOperator(
                object(),  # type: ignore[arg-type]
                CountAggregate(),
                NoBufferHandler(),
                mode="tree",
            )

    def test_slice_store_is_pruned(self, rng):
        stream = make_stream(rng, duration=240)
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(10, 2),
            CountAggregate(),
            KSlackHandler(1.0),
            track_feedback=False,
            mode="tree",
        )
        run_pipeline(stream, operator)
        # Retention is a few windows, not the whole stream (120 slices).
        assert operator.slice_count() < 30
        assert operator.node_count() == 0

    def test_fewer_adds_than_naive(self, rng):
        """The point of slicing: one accumulator add per element."""
        stream = make_stream(rng, duration=30)

        calls = {"naive": 0, "tree": 0}

        class CountingAggregate(CountAggregate):
            def __init__(self, label):
                self.label = label

            def add(self, accumulator, value):
                calls[self.label] += 1
                super().add(accumulator, value)

            def add_many(self, accumulator, values):
                calls[self.label] += len(values)
                super().add_many(accumulator, values)

        for mode in calls:
            run_pipeline(
                stream,
                WindowAggregateOperator(
                    SlidingWindowAssigner(10, 2),
                    CountingAggregate(mode),
                    NoBufferHandler(),
                    mode=mode,
                ),
            )
        assert calls["tree"] == len(stream)
        assert calls["naive"] > 4 * calls["tree"]
