"""Released elements are staged and AQ-K's samplers fold per round: what
that may not change.

Both drivers hand released elements to ``store.stage`` and the store
folds them when a close, a retirement or ``finish`` reads them;
``AQKSlackHandler.slack_for`` parks each arrival and folds the samplers
when a round is due.  Two things no other suite crosses:

* one operator driven by an arbitrary interleaving of ``process`` and
  ``process_many`` (``slacks_for`` meets arrivals a scalar call left
  pending, ``_process_chunk`` meets values a scalar call staged) ends
  where the all-scalar run ends;
* after every scalar call, everything a caller can read equals an operator
  that folds eagerly (a test-local subclass: the store is flushed and the
  samplers are folded after each element);
* a window that stays open over far more arrivals than a close ever folds
  holds at most ``STAGED_FOLD_LIMIT`` raw values, and emits what the eager
  fold emits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ContinuousQuery, sliding, tumbling
from repro.engine.aggregate_op import (
    EXECUTION_MODES,
    STAGED_FOLD_LIMIT,
    WindowAggregateOperator,
)
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream

N_ELEMENTS = 1500


def make_stream(seed: int):
    rng = np.random.default_rng(seed)
    stream = inject_disorder(
        generate_stream(duration=60, rate=30, rng=rng, keys=("a", "b", "c")),
        ExponentialDelay(0.8),
        rng,
    )
    return stream[:N_ELEMENTS]


def build_operator(mode: str, quality: bool) -> WindowAggregateOperator:
    query = ContinuousQuery().window(sliding(4.0, 1.0)).aggregate("mean").mode(mode)
    if quality:
        # Short warm-up and interval: dozens of rounds inside the stream.
        query.with_quality(0.02, warmup_elements=20, adapt_interval=0.5)
    else:
        query.with_slack(0.4)
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


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(EXECUTION_MODES),
    quality=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
    cuts=st.lists(st.integers(min_value=0, max_value=N_ELEMENTS), max_size=10),
    scalar_first=st.booleans(),
)
def test_interleaved_process_and_process_many_match_the_scalar_run(
    mode, quality, seed, cuts, scalar_first
):
    stream = make_stream(seed)
    reference = build_operator(mode, quality)
    expected = [result for element in stream for result in reference.process(element)]
    expected += reference.finish()

    operator = build_operator(mode, quality)
    results = []
    scalar = scalar_first
    bounds = [0, *sorted(set(cuts)), len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        if scalar:
            for element in stream[start:stop]:
                results.extend(operator.process(element))
        else:
            results.extend(operator.process_many(stream[start:stop]))
        scalar = not scalar
    results += operator.finish()

    assert observable(operator, results) == observable(reference, expected)
    if quality:
        assert len(operator.handler.adaptations) > 20


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
    stream = make_stream(7)
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
        query = ContinuousQuery().window(tumbling(3600.0)).aggregate("sum").mode(mode)
        operator = query.with_slack(1.0).build_operator()
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
