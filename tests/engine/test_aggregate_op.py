"""Tests for the windowed aggregation operator."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.controller import PIController
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator, relative_error
from repro.engine.aggregates import CountAggregate, MeanAggregate, SumAggregate, make_aggregate
from repro.engine.handlers import (
    DisorderHandler,
    KSlackHandler,
    MPKSlackHandler,
    NoBufferHandler,
)
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner, TumblingWindowAssigner
from repro.errors import ConfigurationError
from repro.streams.delay import ConstantDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream

from tests.cell_cases import cell_scenario
from tests.conftest import make_arrived


class TestRelativeError:
    def test_exact_match(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_simple_ratio(self):
        assert relative_error(9.0, 10.0) == pytest.approx(0.1)

    def test_zero_truth_uses_epsilon(self):
        assert relative_error(1.0, 0.0) > 1.0

    def test_nan_vs_value_is_full_loss(self):
        assert relative_error(math.nan, 5.0) == 1.0
        assert relative_error(5.0, math.nan) == 1.0

    def test_nan_vs_nan_agrees(self):
        assert relative_error(math.nan, math.nan) == 0.0

    def test_symmetric_in_sign(self):
        assert relative_error(-9.0, -10.0) == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "number", [int, float, np.int64, np.int32, np.float32], ids=lambda t: t.__name__
    )
    def test_numpy_scalars_are_numbers(self, number):
        """Not the exact-match branch: 5 against 10 is half off, in any type."""
        assert relative_error(number(5), number(10)) == 0.5
        assert relative_error(number(5), 10.0) == relative_error(5.0, number(10)) == 0.5
        assert relative_error(number(7), number(7)) == 0.0

    def test_numpy_nan_is_a_missed_window(self):
        assert relative_error(np.float32("nan"), np.float32(5.0)) == 1.0
        assert relative_error(np.float32("nan"), np.float32("nan")) == 0.0

    def test_bool_is_not_a_number(self):
        assert relative_error(True, 2) == 1.0
        assert relative_error(np.bool_(True), np.bool_(True)) == 0.0


class TestInOrderExactness:
    """With in-order input every handler reproduces the oracle exactly."""

    @pytest.mark.parametrize(
        "make_handler",
        [NoBufferHandler, lambda: KSlackHandler(1.0), MPKSlackHandler],
        ids=["no-buffer", "k-slack", "mp-k-slack"],
    )
    def test_matches_oracle(self, rng, make_handler):
        stream = inject_disorder(
            generate_stream(duration=30, rate=40, rng=rng), ConstantDelay(0.1), rng
        )
        assigner = SlidingWindowAssigner(size=5, slide=2)
        aggregate = MeanAggregate()
        operator = WindowAggregateOperator(assigner, aggregate, make_handler())
        output = run_pipeline(stream, operator)
        truth = oracle_results(stream, assigner, aggregate)
        emitted = {(r.key, r.window): r.value for r in output.results}
        assert set(emitted) == set(truth)
        for slot, (exact, __) in truth.items():
            assert emitted[slot] == pytest.approx(exact)
        assert operator.stats.late_dropped == 0


class TestCellScenario:
    """The scenario of :mod:`tests.cell_cases` at size 4, slide 1, by hand.

    Clock key ``"t"`` ticks at ``j + 0.5`` for ``j`` in 0..20; under K = 0.25
    tick ``j`` closes the windows ending at ``j`` or before.
    """

    #: key -> {(start, end): count}, and what the key adds to
    #: (late_dropped, missed_windows).
    EXPECTED = {
        # 4.25 in order; 4.75 after tick 5 closed [1,5).
        "a": ({(1, 5): 1, (2, 6): 2, (3, 7): 2, (4, 8): 2}, (1, 0)),
        # 7.25 in order; 7.75 and 7.8 after tick 9 closed [4,8) and [5,9).
        "d": ({(4, 8): 1, (5, 9): 1, (6, 10): 3, (7, 11): 3}, (4, 0)),
        # 10.25, the key's first element, after tick 12 closed [7,11), [8,12).
        "c": ({(9, 13): 1, (10, 14): 1}, (2, 2)),
        # 13.25 after tick 18 and 13.5 after tick 19: [10,14)..[13,17) all gone.
        "b": ({}, (8, 4)),
    }

    @pytest.mark.parametrize("batch_size", [0, 8], ids=["scalar", "batched"])
    @pytest.mark.parametrize("track_feedback", [True, False], ids=["feedback", "no-feedback"])
    def test_matches_hand_computation(self, batch_size, track_feedback):
        elements, __, __ = cell_scenario(4.0, 1.0, 0, [1.0])
        elements.sort(key=StreamElement.arrival_sort_key)
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(4.0, 1.0),
            CountAggregate(),
            KSlackHandler(0.25),
            track_feedback=track_feedback,
        )
        output = run_pipeline(elements, operator, batch_size=batch_size)
        for key, (windows, __) in self.EXPECTED.items():
            emitted = {
                (r.window.start, r.window.end): r.count
                for r in output.results
                if r.key == key
            }
            assert emitted == windows, key
        # The clock key: 21 ticks, four to a window but for the edges.
        ticks = {r.window.start: r.count for r in output.results if r.key == "t"}
        assert ticks == {start: min(4, 21 - start) for start in range(21)}
        late, missed = map(sum, zip(*(counts for __, counts in self.EXPECTED.values())))
        assert (late, missed) == (15, 6)
        assert operator.stats.late_dropped == late
        assert operator.stats.missed_windows == (missed if track_feedback else 0)
        # Retained [1,5) saw one late element of two; [4,8) and [5,9) two of
        # three; the six phantom records are full losses.
        wrong = sorted(error for error in output.observed_errors if error)
        expected = [0.5, 2 / 3, 2 / 3] + [1.0] * 6 if track_feedback else []
        assert wrong == pytest.approx(expected)

    @pytest.mark.parametrize("batch_size", [0, 8], ids=["scalar", "batched"])
    def test_unaligned_windows_split_a_slide_interval(self, batch_size):
        """Size 5, slide 2: [0,5) holds 4.x but not 5.x, so slide interval
        [4,6) has two window lists and its cell is rebuilt at each crossing."""
        stream = make_arrived(
            [
                (4.5, 6.0, 1.0),
                (5.5, 7.0, 1.0),  # frontier 5.5: [0,5) closes with one element
                (4.6, 8.0, 1.0),  # late for [0,5) only
                (5.6, 9.0, 1.0),
                (4.7, 10.0, 1.0),  # late for [0,5) only
            ]
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5.0, 2.0), CountAggregate(), NoBufferHandler()
        )
        output = run_pipeline(stream, operator, batch_size=batch_size)
        counts = {(r.window.start, r.window.end): r.count for r in output.results}
        assert counts == {(0.0, 5.0): 1, (2.0, 7.0): 5, (4.0, 9.0): 5}
        assert operator.stats.late_dropped == 2
        assert operator.stats.missed_windows == 0


class _CountingAssigner(SlidingWindowAssigner):
    """Counts ``assign`` calls: the public seam the store finds windows through."""

    def __init__(self, size, slide):
        super().__init__(size, slide)
        self.calls = 0

    def assign(self, timestamp):
        self.calls += 1
        return super().assign(timestamp)


class _CountingSum(SumAggregate):
    """Counts the values folded, one at a time or in bulk."""

    folds = 0

    def add(self, accumulator, value):
        self.folds += 1
        super().add(accumulator, value)

    def add_many(self, accumulator, values):
        self.folds += len(values)
        super().add_many(accumulator, values)


class TestCellBookkeeping:
    """What the per-window store does per element besides folding it."""

    @pytest.mark.parametrize("batch_size", [0, 512], ids=["scalar", "batched"])
    def test_windows_are_found_per_slide_interval_not_per_element(self, rng, batch_size):
        """Overlap 5, eight keys, in order: a slide interval's windows are
        looked up a handful of times (the memo is shared by the keys and
        dropped at each close), while every fold still happens."""
        stream = inject_disorder(
            generate_stream(duration=100, rate=100, rng=rng, keys=tuple("abcdefgh")),
            ConstantDelay(0.0),
            rng,
        )
        assigner, aggregate = _CountingAssigner(10.0, 2.0), _CountingSum()
        operator = WindowAggregateOperator(assigner, aggregate, NoBufferHandler())
        run_pipeline(stream, operator, batch_size=batch_size)
        intervals = {math.floor(element.event_time / 2.0) for element in stream}
        assert len(stream) > 50 * len(intervals)
        assert assigner.calls <= 3 * len(intervals)
        reference = SlidingWindowAssigner(10.0, 2.0)
        assert aggregate.folds == sum(
            len(reference.assign(element.event_time)) for element in stream
        )
        assert operator.stats.late_dropped == 0

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batched"])
    def test_cells_last_only_while_one_of_their_windows_is_open(self, rng, batch_size):
        """Delays around the window size, K far below them and few elements
        per window: on-time, partly late and never-opened windows all
        through the run (``tests.cell_cases`` pins the wholly late one)."""
        stream = inject_disorder(
            generate_stream(duration=400, rate=6, rng=rng, keys=("a", "b", "c")),
            ExponentialDelay(3.0),
            rng,
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(4.0, 1.0), CountAggregate(), KSlackHandler(0.3),
            track_feedback=True,
        )
        store = operator._store
        step = batch_size or 1
        most = 0
        for index in range(0, len(stream), step):
            if batch_size:
                emitted = operator.process_many(stream[index : index + step])
            else:
                emitted = operator.process(stream[index])
            open_intervals = {
                (key, interval)
                for key, window in store._open
                for interval in range(round(window.start), round(window.end))
            }
            assert set(store._cells) <= open_intervals
            assert set(store._cache.entries) <= {interval for __, interval in open_intervals}
            # Staged values wait for a close that emits; it folds them all (a
            # batch goes on staging after its last close).
            if emitted and not batch_size:
                assert not store._staged
            key_of = {id(cell): key for (key, __), cell in store._cells.items()}
            for cell in store._staged:
                assert cell.values and id(cell) in key_of
                assert all((key_of[id(cell)], w) in store._open for w in cell.on_time)
            most = max(most, len(store._cells))
        assert most >= 3  # one per key at least: the bound is not met by keeping none
        assert operator.stats.late_dropped > operator.stats.missed_windows > 0
        operator.finish()
        assert not store._cells and not store._cache.entries and not store._open
        assert not store._staged


class TestSmallDeterministicScenario:
    """Hand-checked tumbling count over a tiny crafted disordered stream."""

    def make_stream(self):
        # (event_time, arrival_time, value); window size 10.
        return make_arrived(
            [
                (1.0, 1.0, 1.0),
                (4.0, 4.5, 1.0),
                (9.0, 9.0, 1.0),
                (12.0, 12.0, 1.0),  # clock passes 10: [0,10) closes (no-buffer)
                (8.0, 13.0, 1.0),  # late for [0,10)
                (15.0, 15.0, 1.0),
                (22.0, 22.0, 1.0),  # closes [10,20)
            ]
        )

    def test_no_buffer_drops_late(self):
        operator = WindowAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate(), NoBufferHandler()
        )
        output = run_pipeline(self.make_stream(), operator)
        values = {r.window.start: r.value for r in output.results}
        assert values[0.0] == 3.0  # late element dropped
        assert values[10.0] == 2.0
        assert operator.stats.late_dropped == 1

    def test_sufficient_slack_includes_late(self):
        operator = WindowAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate(), KSlackHandler(5.0)
        )
        output = run_pipeline(self.make_stream(), operator)
        values = {r.window.start: r.value for r in output.results}
        assert values[0.0] == 4.0  # late element recovered by the buffer
        assert operator.stats.late_dropped == 0

    def test_latency_reflects_slack(self):
        fast = WindowAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate(), NoBufferHandler()
        )
        slow = WindowAggregateOperator(
            TumblingWindowAssigner(10.0), CountAggregate(), KSlackHandler(5.0)
        )
        fast_out = run_pipeline(self.make_stream(), fast)
        slow_out = run_pipeline(self.make_stream(), slow)
        fast_lat = {
            r.window.start: r.latency for r in fast_out.results if not r.flushed
        }
        slow_lat = {
            r.window.start: r.latency for r in slow_out.results if not r.flushed
        }
        assert slow_lat[0.0] > fast_lat[0.0]


class TestLatencyProperties:
    def test_non_flushed_latencies_non_negative(self, rng, small_disordered_stream):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(0.5)
        )
        output = run_pipeline(small_disordered_stream, operator)
        for result in output.results:
            if not result.flushed:
                assert result.latency >= 0.0

    def test_flushed_windows_marked(self, rng, small_disordered_stream):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(3.0)
        )
        output = run_pipeline(small_disordered_stream, operator)
        assert any(result.flushed for result in output.results)

    def test_results_emitted_in_window_end_order_per_round(
        self, rng, small_disordered_stream
    ):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(0.5)
        )
        output = run_pipeline(small_disordered_stream, operator)
        ends = [r.window.end for r in output.results]
        assert ends == sorted(ends)

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["process", "process_many"])
    @pytest.mark.parametrize("mode", ["naive", "tree"])
    def test_results_closed_together_share_one_latency_and_window(self, mode, batch_size):
        """Every key closing at one end in one close gets the same latency
        float and the same ``Window``: no per-result 24-byte float."""
        rng = np.random.default_rng(5)
        stream = inject_disorder(
            generate_stream(duration=60.0, rate=200.0, rng=rng, keys=list("abcdef")),
            ExponentialDelay(0.5),
            rng,
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(4.0, 0.5), MeanAggregate(), KSlackHandler(0.5), mode=mode
        )
        results = run_pipeline(stream, operator, batch_size=batch_size).results
        # A window end closes once: one close's results at one end share both.
        closes: dict[tuple[float, float], list] = {}
        for result in results:
            closes.setdefault((result.emit_time, result.window.end), []).append(result)
        assert sum(len(group) > 1 for group in closes.values()) > 100
        assert any(result.flushed for result in results)
        for group in closes.values():
            assert len({id(result.latency) for result in group}) == 1
            assert len({id(result.window) for result in group}) == 1
            for result in group:
                assert result.latency.hex() == (result.emit_time - result.window.end).hex()


class TestFeedback:
    def test_observed_errors_collected(self, rng):
        stream = inject_disorder(
            generate_stream(duration=60, rate=50, rng=rng), ExponentialDelay(0.5), rng
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1),
            CountAggregate(),
            NoBufferHandler(),
            feedback_horizon=10.0,
            track_feedback=True,
        )
        output = run_pipeline(stream, operator)
        assert len(output.observed_errors) > 0

    def test_observed_errors_reflect_true_error(self, rng):
        """Observed (feedback) error agrees with oracle error in aggregate."""
        stream = inject_disorder(
            generate_stream(duration=120, rate=50, rng=rng), ExponentialDelay(0.5), rng
        )
        assigner = SlidingWindowAssigner(5, 1)
        aggregate = CountAggregate()
        operator = WindowAggregateOperator(
            assigner, aggregate, NoBufferHandler(), feedback_horizon=30.0,
            track_feedback=True,
        )
        output = run_pipeline(stream, operator)
        truth = oracle_results(stream, assigner, aggregate)
        emitted = {(r.key, r.window): r.value for r in output.results}
        true_errors = [
            relative_error(emitted[slot], exact)
            for slot, (exact, __) in truth.items()
            if slot in emitted
        ]
        observed_mean = sum(output.observed_errors) / len(output.observed_errors)
        true_mean = sum(true_errors) / len(true_errors)
        assert observed_mean == pytest.approx(true_mean, abs=0.01)

    def test_no_feedback_when_disabled(self, rng, small_disordered_stream):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1),
            CountAggregate(),
            NoBufferHandler(),
            track_feedback=False,
        )
        output = run_pipeline(small_disordered_stream, operator)
        assert list(output.observed_errors) == []

    def test_exact_run_observes_zero_errors(self, rng):
        stream = inject_disorder(
            generate_stream(duration=30, rate=40, rng=rng), ConstantDelay(0.1), rng
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), SumAggregate(), MPKSlackHandler(),
            track_feedback=True,
        )
        output = run_pipeline(stream, operator)
        assert output.observed_errors
        assert all(error == 0.0 for error in output.observed_errors)

    @pytest.mark.parametrize(
        "aggregate_name, python_type, numpy_type",
        [("mean", int, np.int64), ("max", float, np.float32), ("mean", float, np.float32)],
        ids=["mean-int64", "max-float32", "mean-float32"],
    )
    def test_numpy_values_drive_aqk_like_python_values(
        self, rng, aggregate_name, python_type, numpy_type
    ):
        """The quality loop sees numpy-valued elements as it sees their twins.

        (``float32`` included: an element turns a numpy floating payload
        into a Python float, so ``mean`` folds it in double precision.)
        """
        stream = inject_disorder(
            generate_stream(duration=60, rate=100, rng=rng), ExponentialDelay(0.4), rng
        )
        # Centred low enough that the mean's dispersion keeps K above zero.
        raw = [numpy_type(element.value * 10 - 2) for element in stream]

        def run(convert):
            aggregate = make_aggregate(aggregate_name)
            handler = AQKSlackHandler(
                target=QualityTarget(0.02), aggregate=aggregate, window_size=10.0
            )
            operator = WindowAggregateOperator(
                SlidingWindowAssigner(10, 2), aggregate, handler
            )
            elements = [
                dataclasses.replace(element, value=convert(value))
                for element, value in zip(stream, raw)
            ]
            return run_pipeline(elements, operator), handler

        as_numpy, numpy_handler = run(lambda value: value)
        as_python, python_handler = run(python_type)
        assert numpy_handler.adaptations == python_handler.adaptations
        assert max(step.k_applied for step in numpy_handler.adaptations) > 0.0
        assert as_numpy.observed_errors == as_python.observed_errors
        assert as_numpy.observed_errors

    @pytest.mark.parametrize("mode", ["naive", "tree"])
    @pytest.mark.parametrize("aggregate_name", ["sum", "mean", "median", "variance"])
    def test_float32_payloads_fold_in_double_precision(self, rng, aggregate_name, mode):
        stream = inject_disorder(
            generate_stream(duration=30, rate=50, rng=rng), ExponentialDelay(0.3), rng
        )
        raw = [np.float32(element.value * 10) for element in stream]

        def run(convert):
            elements = [
                dataclasses.replace(element, value=convert(value))
                for element, value in zip(stream, raw)
            ]
            operator = WindowAggregateOperator(
                SlidingWindowAssigner(5, 1),
                make_aggregate(aggregate_name),
                KSlackHandler(1.0),
                mode=mode,
            )
            return run_pipeline(elements, operator).results

        as_float32, as_float = run(lambda value: value), run(float)
        assert as_float32 == as_float
        assert all(type(result.value) is float for result in as_float32)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowAggregateOperator(
                SlidingWindowAssigner(5, 1),
                CountAggregate(),
                NoBufferHandler(),
                feedback_horizon=-1.0,
            )


class ForwardingHandler(DisorderHandler):
    """A wrapper shaped like a profiling proxy: it forwards every call,
    feedback included, and declares nothing about ``takes_feedback``."""

    def __init__(self, inner):
        self.inner = inner

    def offer(self, element):
        return self.inner.offer(element)

    def offer_many(self, elements):
        return self.inner.offer_many(elements)

    def flush(self):
        return self.inner.flush()

    def observe_error(self, error):
        self.inner.observe_error(error)

    def next_adaptation_offset(self, elements, start, stop):
        return self.inner.next_adaptation_offset(elements, start, stop)

    @property
    def frontier(self):
        return self.inner.frontier

    @property
    def current_slack(self):
        return self.inner.current_slack

    def buffered_count(self):
        return self.inner.buffered_count()

    def max_buffered_count(self):
        return self.inner.max_buffered_count()

    def released_count(self):
        return self.inner.released_count()


class TestFeedbackDefault:
    """``track_feedback`` defaults to the handler's ``takes_feedback``."""

    @pytest.mark.parametrize(
        "handler, takes",
        [
            (NoBufferHandler(), False),
            (KSlackHandler(1.0), False),
            (MPKSlackHandler(), False),
            (AQKSlackHandler(QualityTarget(0.05), "mean", window_size=5.0), True),
            (AQKSlackHandler(LatencyBudget(1.0), "mean", window_size=5.0), False),
            (
                AQKSlackHandler(
                    LatencyBudget(1.0), "mean", window_size=5.0,
                    controller=PIController(target=0.05),
                ),
                False,
            ),
            (ForwardingHandler(KSlackHandler(1.0)), True),
        ],
        ids=[
            "no-buffer", "k-slack", "mp-k-slack", "aqk-quality",
            "aqk-budget", "aqk-budget-with-controller", "undeclared-wrapper",
        ],
    )
    @pytest.mark.parametrize("mode", ["naive", "tree"])
    def test_store_follows_the_handler_unless_told(self, handler, takes, mode):
        assert handler.takes_feedback is takes
        assigner = SlidingWindowAssigner(5, 1)

        def store(**kwargs):
            operator = WindowAggregateOperator(
                assigner, MeanAggregate(), handler, mode=mode, **kwargs
            )
            return operator._store

        assert store().track_feedback is takes
        assert store(track_feedback=True).track_feedback is True
        assert store(track_feedback=False).track_feedback is False

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batched"])
    @pytest.mark.parametrize("mode", ["naive", "tree"])
    def test_an_undeclared_wrapper_still_feeds_aqk(self, rng, mode, batch_size):
        """A wrapper that forwards ``observe_error`` without declaring
        ``takes_feedback`` leaves the AQ-K loop exactly as the bare handler
        runs it."""
        stream = inject_disorder(
            generate_stream(duration=60, rate=50, rng=rng), ExponentialDelay(0.5), rng
        )

        def run(wrap):
            handler = AQKSlackHandler(QualityTarget(0.02), "mean", window_size=5.0)
            operator = WindowAggregateOperator(
                SlidingWindowAssigner(5, 1), MeanAggregate(), wrap(handler), mode=mode
            )
            return run_pipeline(stream, operator, batch_size=batch_size), handler

        bare, bare_handler = run(lambda handler: handler)
        wrapped, wrapped_handler = run(ForwardingHandler)
        assert wrapped.results == bare.results
        assert wrapped.observed_errors == bare.observed_errors
        assert bare.observed_errors
        assert wrapped_handler.adaptations == bare_handler.adaptations

    def test_fixed_k_tree_keeps_only_the_slices_open_windows_read(self):
        """Under fixed K-slack no closed window is kept: retained slices stay
        within one window span plus the slack, at every step."""
        rng = np.random.default_rng(5)
        stream = inject_disorder(
            generate_stream(duration=120, rate=40, rng=rng), ExponentialDelay(0.5), rng
        )
        k, size, slide = 1.0, 4.0, 0.5
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(size, slide), MeanAggregate(), KSlackHandler(k),
            mode="tree",
        )
        bound = round(size / slide) + math.ceil(k / slide) + 2
        for element in stream:
            operator.process(element)
            assert operator.slice_count() <= bound
        assert operator.stats.late_dropped  # late elements reached closed slices
        operator.finish()
        assert list(operator.stats.observed_errors) == []

    def test_fixed_k_naive_retains_no_closed_record(self, rng):
        stream = inject_disorder(
            generate_stream(duration=60, rate=40, rng=rng), ExponentialDelay(0.5), rng
        )
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(0.5)
        )
        for element in stream:
            operator.process(element)
            assert not operator._store._closed and not operator._store._closed_heap
        operator.finish()
        stats = operator.stats
        assert stats.late_dropped and stats.results_out
        assert list(stats.observed_errors) == [] and stats.missed_windows == 0


class TestKeyedStreams:
    def test_keys_aggregated_independently(self, rng):
        stream = generate_stream(duration=30, rate=60, rng=rng, keys=("a", "b"))
        arrived = inject_disorder(stream, ConstantDelay(0.0), rng)
        assigner = TumblingWindowAssigner(10.0)
        aggregate = CountAggregate()
        operator = WindowAggregateOperator(assigner, aggregate, NoBufferHandler())
        output = run_pipeline(arrived, operator)
        truth = oracle_results(arrived, assigner, aggregate)
        emitted = {(r.key, r.window): r.value for r in output.results}
        assert emitted == {slot: exact for slot, (exact, __) in truth.items()}
        keys = {r.key for r in output.results}
        assert keys == {"a", "b"}

    def test_missed_window_recorded(self):
        """A window whose only element is late is counted as missed."""
        stream = make_arrived(
            [
                (25.0, 25.0, 1.0),  # advances clock way past [0,10)
                (5.0, 26.0, 1.0),  # the only element of [0,10): late
                (40.0, 40.0, 1.0),
            ]
        )
        operator = WindowAggregateOperator(
            TumblingWindowAssigner(10.0),
            CountAggregate(),
            NoBufferHandler(),
            feedback_horizon=100.0,
            track_feedback=True,
        )
        output = run_pipeline(stream, operator)
        assert operator.stats.missed_windows == 1
        assert 1.0 in output.observed_errors  # full loss for the missed window
