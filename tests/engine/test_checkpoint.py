"""Tests for checkpoint/restore: resume equivalence."""

import copy
import pickle
from functools import partial

import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import EXECUTION_MODES, WindowAggregateOperator
from repro.engine.aggregates import CountAggregate, MeanAggregate
from repro.engine.checkpoint import (
    dumps_state,
    load_checkpoint,
    loads_state,
    save_checkpoint,
)
from repro.engine.handlers import KSlackHandler
from repro.engine.parallel import ShardedWindowOperator
from repro.engine.process_pool import ProcessShardExecutor
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def make_stream(rng, duration=60):
    return inject_disorder(
        generate_stream(duration=duration, rate=40, rng=rng),
        ExponentialDelay(0.5),
        rng,
    )


def drive(operator, elements, finish=True, batch_size=0):
    results = []
    if batch_size:
        for index in range(0, len(elements), batch_size):
            results.extend(operator.process_many(elements[index : index + batch_size]))
    else:
        for element in elements:
            results.extend(operator.process(element))
    if finish:
        results.extend(operator.finish())
    return results


class TestResumeEquivalence:
    def _assert_resume_equivalent(
        self, make_operator, stream, tmp_path, batch_size=0, half=None, snapshot=None
    ):
        # Reference: one uninterrupted run.
        uninterrupted = make_operator()
        reference = drive(uninterrupted, list(stream), batch_size=batch_size)

        # Checkpointed: run half, save, load (or ``snapshot``), run the rest.
        if half is None:
            half = len(stream) // 2
        first_half = make_operator()
        results = drive(first_half, stream[:half], finish=False, batch_size=batch_size)
        if snapshot is None:
            path = tmp_path / "op.ckpt"
            save_checkpoint(first_half, path)
            resumed = load_checkpoint(path)
        else:
            resumed = snapshot(first_half)
        results += drive(resumed, stream[half:], batch_size=batch_size)

        assert len(results) == len(reference)
        for a, b in zip(results, reference):
            assert a.key == b.key
            assert a.window == b.window
            assert a.value == pytest.approx(b.value, nan_ok=True)
            assert a.count == b.count
            assert a.latency == pytest.approx(b.latency)
        return reference, uninterrupted, results, resumed

    @pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batched"])
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_every_mode_resumes_identically(self, rng, tmp_path, mode, batch_size):
        """Window stores stay picklable mid-run: results and feedback match."""
        stream = make_stream(rng)

        def make_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(5, 1),
                MeanAggregate(),
                KSlackHandler(0.5),
                feedback_horizon=10.0,
                mode=mode,
            )

        reference, uninterrupted, results, resumed = self._assert_resume_equivalent(
            make_operator, stream, tmp_path, batch_size
        )
        assert results == reference
        assert uninterrupted.stats.observed_errors
        assert resumed.stats.observed_errors == uninterrupted.stats.observed_errors

        # One more input: cut between two elements of one slide interval, so
        # what the per-window store keeps per interval crosses the snapshot.
        # In order at 0.05 + 0.1 i under K = 0.5, feeding 309 elements
        # releases up to 30.35; 30.45 comes next and no window closes
        # between them.
        ticks = [
            StreamElement(
                event_time=0.05 + 0.1 * i, value=float(i % 7), arrival_time=0.05 + 0.1 * i, seq=i
            )
            for i in range(600)
        ]

        def cut(operator):
            if mode == "naive":
                assert list(operator._store._cells) == [(None, 30)]
            return operator

        for snapshot in (
            None,  # the file checkpoint
            lambda operator: copy.deepcopy(cut(operator)),
            lambda operator: loads_state(dumps_state(cut(operator))),
        ):
            reference, __, results, __ = self._assert_resume_equivalent(
                make_operator, ticks, tmp_path, batch_size, half=309, snapshot=snapshot
            )
            assert results == reference

    def test_kslack_operator(self, rng, tmp_path):
        stream = make_stream(rng)

        def make_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(1.0)
            )

        self._assert_resume_equivalent(make_operator, stream, tmp_path)

    def test_adaptive_operator(self, rng, tmp_path):
        """Resume restores the controller gain and delay sample too."""
        stream = make_stream(rng)

        def make_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(5, 1),
                CountAggregate(),
                AQKSlackHandler(
                    target=QualityTarget(0.05),
                    aggregate=CountAggregate(),
                    window_size=5.0,
                ),
            )

        self._assert_resume_equivalent(make_operator, stream, tmp_path)

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_resume_with_values_staged_and_samples_pending(self, rng, tmp_path, mode):
        """The scalar driver leaves released values staged in the store and
        arrivals unfolded in the handler between calls: both cross the cut."""
        stream = make_stream(rng)

        def make_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(5, 1),
                MeanAggregate(),
                AQKSlackHandler(QualityTarget(0.02), "mean", window_size=5.0),
                feedback_horizon=10.0,
                mode=mode,
            )

        def cut(operator):
            store = operator._store
            assert store._staged if mode == "naive" else store._groups
            assert operator.handler._pending
            return loads_state(dumps_state(operator))

        reference, uninterrupted, results, resumed = self._assert_resume_equivalent(
            make_operator, stream, tmp_path, snapshot=cut
        )
        assert results == reference
        assert resumed.stats.observed_errors == uninterrupted.stats.observed_errors
        assert resumed.handler.adaptations == uninterrupted.handler.adaptations
        assert len(resumed.handler.adaptations) > 20

    def test_adaptive_state_survives(self, rng, tmp_path):
        stream = make_stream(rng)
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1),
            CountAggregate(),
            AQKSlackHandler(
                target=QualityTarget(0.05),
                aggregate=CountAggregate(),
                window_size=5.0,
            ),
        )
        drive(operator, stream, finish=False)
        path = tmp_path / "op.ckpt"
        save_checkpoint(operator, path)
        resumed = load_checkpoint(path)
        assert resumed.handler.k == operator.handler.k
        assert len(resumed.handler.adaptations) == len(operator.handler.adaptations)
        assert resumed.stats.elements_in == operator.stats.elements_in


class TestCheckpointFormat:
    def test_bytes_written_reported(self, rng, tmp_path):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(1.0)
        )
        path = tmp_path / "op.ckpt"
        n = save_checkpoint(operator, path)
        assert n == path.stat().st_size

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_creates_parent_directories(self, rng, tmp_path):
        operator = WindowAggregateOperator(
            SlidingWindowAssigner(5, 1), MeanAggregate(), KSlackHandler(1.0)
        )
        path = tmp_path / "deep" / "nested" / "op.ckpt"
        save_checkpoint(operator, path)
        assert path.exists()


class TestUnpicklableOperators:
    """What does not pickle is refused with a typed error, and no file."""

    def test_process_executor_after_dispatch(self, rng, tmp_path):
        stream = make_stream(rng)
        executor = ProcessShardExecutor(max_workers=1, chunk_size=64)
        try:
            operator = ShardedWindowOperator(
                2,
                SlidingWindowAssigner(5, 1),
                CountAggregate(),
                partial(KSlackHandler, 1.0),  # pickles: not the cause here
                executor=executor,
            )
            operator.process_many(stream[:300])
            path = tmp_path / "sharded.ckpt"
            with pytest.raises(ConfigurationError, match="does not pickle"):
                save_checkpoint(operator, path)
            assert not path.exists()
        finally:
            executor.close()

    def test_lambda_handler_factory(self, rng, tmp_path):
        operator = ShardedWindowOperator(
            2, SlidingWindowAssigner(5, 1), CountAggregate(), lambda: KSlackHandler(1.0)
        )
        operator.process_many(make_stream(rng)[:300])
        path = tmp_path / "deep" / "lambda.ckpt"
        with pytest.raises(ConfigurationError, match="does not pickle") as refusal:
            save_checkpoint(operator, path)
        assert not path.parent.exists()
        assert isinstance(refusal.value.__cause__, (pickle.PicklingError, AttributeError))

    def test_a_failing_reduce_is_not_reported_as_unpicklable(self, tmp_path):
        class Broken:
            def __reduce__(self):
                raise AttributeError("no attribute '_state'")

        path = tmp_path / "broken.ckpt"
        with pytest.raises(AttributeError, match="_state"):
            save_checkpoint(Broken(), path)
        assert not path.exists()
