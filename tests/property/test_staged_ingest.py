"""Released elements are staged, and AQ-K's samplers fold per round: what
that may not change.

* Any interleaving of ``process`` and ``process_many`` (the cuts driver of
  :mod:`tests.matrix`) emits what the scalar run emits (R1), also where
  the cuts fall among dozens of AQ-K rounds.
* After every scalar call, everything a caller can read equals an operator
  that folds eagerly (a test-local subclass: the store is flushed and the
  samplers are folded after each element).
* A window that stays open over far more arrivals than a close ever folds
  holds at most ``STAGED_FOLD_LIMIT`` raw values, and emits what the eager
  fold emits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import ContinuousQuery, sliding
from repro.engine.aggregate_op import (
    EXECUTION_MODES,
    STAGED_FOLD_LIMIT,
    WindowAggregateOperator,
)
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.windows import SlidingWindowAssigner, TumblingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.matrix import INTERLEAVED, MATRIX, Base, check, draws, generated_stream

def build_operator(mode: str, quality: bool) -> WindowAggregateOperator:
    if not quality:
        # Fixed K takes no feedback: keep and score closed windows anyway,
        # so the observed errors below are compared, not two empty lists.
        return WindowAggregateOperator(
            SlidingWindowAssigner(4.0, 1.0), make_aggregate("mean"),
            KSlackHandler(0.4), track_feedback=True, mode=mode,
        )
    query = ContinuousQuery().window(sliding(4.0, 1.0)).aggregate("mean").mode(mode)
    # Short warm-up and interval: dozens of rounds inside the stream.
    query.with_quality(0.02, warmup_elements=20, adapt_interval=0.5)
    return query.build_operator()


def observable(operator: WindowAggregateOperator, results) -> tuple:
    stats = operator.stats
    return (
        results,
        stats.observed_errors,
        stats.late_dropped,
        stats.missed_windows,
        getattr(operator.handler, "adaptations", None),
    )


class _EagerOperator(WindowAggregateOperator):
    """Folds what each call staged and parked before handing back."""

    def process(self, element):
        results = super().process(element)
        self._store.flush()
        fold_pending = getattr(self.handler, "_fold_pending", None)
        if fold_pending is not None:
            fold_pending()
        return results


@pytest.mark.parametrize("quality", [False, True], ids=["k-slack", "aq-k"])
@pytest.mark.parametrize("mode", EXECUTION_MODES)
def test_every_scalar_call_leaves_what_an_eager_fold_leaves(mode, quality):
    rng = np.random.default_rng(7)
    generated = generate_stream(duration=60, rate=30, rng=rng, keys=("a", "b", "c"))
    stream = inject_disorder(generated, ExponentialDelay(0.8), rng)[:1500]
    deferred = build_operator(mode, quality)
    eager = build_operator(mode, quality)
    eager.__class__ = _EagerOperator
    waited = 0
    for element in stream:
        assert deferred.process(element) == eager.process(element)
        store = deferred._store
        waited += bool(store._staged if mode == "naive" else store._groups)
        assert deferred.handler.current_slack == eager.handler.current_slack
        assert deferred.handler.buffered_count() == eager.handler.buffered_count()
        assert deferred.stats.late_dropped == eager.stats.late_dropped
        if mode == "tree":
            assert deferred.slice_count() == eager.slice_count()
    assert waited > len(stream) // 2  # the deferred side did defer
    assert deferred.finish() == eager.finish()
    assert observable(deferred, []) == observable(eager, [])
    assert deferred.stats.late_dropped > 0


def longest_staged(operator: WindowAggregateOperator, mode: str) -> int:
    store = operator._store
    if mode == "naive":
        return max((len(cell.values) for cell in store._staged), default=0)
    return max((len(entry[2]) for entry in store._groups), default=0)


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("mode", EXECUTION_MODES)
def test_a_long_open_window_holds_a_bounded_number_of_staged_values(mode, batched):
    # One hour-long tumbling window per key, no close until the very end: the
    # hot key sends 2.5 limits' worth of values, the cold one a handful.
    n = 2 * STAGED_FOLD_LIMIT + STAGED_FOLD_LIMIT // 2
    rng = np.random.default_rng(11)
    stream = [
        StreamElement(
            event_time=i * 0.25,
            value=float(rng.normal(50.0, 20.0)),
            key="cold" if i % 1000 == 0 else "hot",
            arrival_time=i * 0.25,
            seq=i,
        )
        for i in range(n)
    ]

    def build(cls=WindowAggregateOperator):
        operator = WindowAggregateOperator(
            TumblingWindowAssigner(3600.0), make_aggregate("sum"), KSlackHandler(1.0),
            track_feedback=True, mode=mode,
        )
        operator.__class__ = cls
        return operator

    eager = build(_EagerOperator)
    expected = [result for element in stream for result in eager.process(element)]
    expected += eager.finish()

    operator = build()
    results = []
    longest = 0
    if batched:
        chunk = STAGED_FOLD_LIMIT + 900  # one chunk alone overruns the limit
        for start in range(0, n, chunk):
            results.extend(operator.process_many(stream[start : start + chunk]))
            longest = max(longest, longest_staged(operator, mode))
        assert 0 < longest < STAGED_FOLD_LIMIT
    else:
        for element in stream:
            results.extend(operator.process(element))
            longest = max(longest, longest_staged(operator, mode))
        assert longest == STAGED_FOLD_LIMIT - 1  # a full list folded inside the call
    results += operator.finish()
    assert len(results) == 2
    assert observable(operator, results) == observable(eager, expected)


#: ``(adapts, draw)``: when ``adapts``, an unsharded AQ-K cell over a
#: generated stream, whose reference must adapt more than 20 times.
ROUNDS = draws(
    driver="cuts", source="generated", shards=st.just(0),
    handler=st.sampled_from(["aqk-quality", "aqk-budget"]),
)
CUTS = st.tuples(st.just(False), draws(driver="cuts")) | st.tuples(st.just(True), ROUNDS)


@MATRIX
@given(CUTS)
@example((False, (Base(generated_stream(0), 4.0, 1.0, "mean", "mp-k-slack"), INTERLEAVED)))
@example((True, (Base(generated_stream(1), 4.0, 1.0, "mean", "aqk-quality"), INTERLEAVED)))
def test_interleaved_process_and_process_many_match_the_scalar_run(checkpoint, cuts):
    adapts, (base, cell) = cuts
    adaptations = check(base, cell, checkpoint=checkpoint)[-1]
    assert not adapts or len(adaptations) > 20
