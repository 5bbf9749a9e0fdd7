"""Tests for the interval join operator, and for what it shares with the
sequence pattern through ``PairMatchOperator``."""

import pytest

from repro.core.pair_quality import QualityDrivenIntervalJoin
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pairs import (
    IntervalJoinOperator,
    SequencePatternOperator,
    oracle_pairs,
)
from repro.engine.pipeline import run_pipeline
from repro.errors import ConfigurationError
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


def side_by_value_sign(element: StreamElement) -> str:
    return "left" if element.value >= 0 else "right"


def make_two_sided(rng, duration=30, rate=60):
    """Keyed stream where positive values are 'left', negative 'right'."""
    base = generate_stream(duration=duration, rate=rate, rng=rng, keys=("a", "b"))
    signed = [
        StreamElement(
            event_time=el.event_time,
            value=(1.0 if i % 2 == 0 else -1.0),
            key=el.key,
            seq=el.seq,
        )
        for i, el in enumerate(base)
    ]
    return signed


def drive_join(operator, elements):
    results = []
    for element in elements:
        results.extend(operator.process(element))
    results.extend(operator.finish())
    return results


class TestIntervalJoin:
    def test_small_deterministic(self):
        elements = [
            StreamElement(event_time=1.0, value=1.0, key="k", arrival_time=1.0, seq=0),
            StreamElement(event_time=1.5, value=-1.0, key="k", arrival_time=1.5, seq=1),
            StreamElement(event_time=5.0, value=-1.0, key="k", arrival_time=5.0, seq=2),
        ]
        operator = IntervalJoinOperator(
            bound=1.0, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        results = drive_join(operator, elements)
        assert len(results) == 1
        assert results[0].first_time == 1.0
        assert results[0].second_time == 1.5

    def test_key_isolation(self):
        elements = [
            StreamElement(event_time=1.0, value=1.0, key="a", arrival_time=1.0, seq=0),
            StreamElement(event_time=1.2, value=-1.0, key="b", arrival_time=1.2, seq=1),
        ]
        operator = IntervalJoinOperator(
            bound=1.0, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        assert drive_join(operator, elements) == []

    def test_in_order_join_is_complete(self, rng):
        elements = make_two_sided(rng)
        arrived = [el.with_arrival(el.event_time) for el in elements]
        operator = IntervalJoinOperator(
            bound=0.5, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        results = drive_join(operator, arrived)
        expected = oracle_pairs(arrived, operator.roles_of, operator.in_bound)
        emitted = {(r.key, r.first_time, r.second_time) for r in results}
        assert emitted == expected

    def test_pairs_emitted_exactly_once(self, rng):
        elements = make_two_sided(rng)
        arrived = [el.with_arrival(el.event_time) for el in elements]
        operator = IntervalJoinOperator(
            bound=0.5, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        results = drive_join(operator, arrived)
        emitted = [(r.key, r.first_time, r.second_time) for r in results]
        assert len(emitted) == len(set(emitted))

    def test_disorder_loses_pairs_without_buffering(self, rng):
        elements = make_two_sided(rng, duration=60, rate=80)
        arrived = inject_disorder(elements, ExponentialDelay(1.0), rng)

        no_buffer = IntervalJoinOperator(
            bound=0.5, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        expected = oracle_pairs(arrived, no_buffer.roles_of, no_buffer.in_bound)
        lossy = {
            (r.key, r.first_time, r.second_time)
            for r in drive_join(no_buffer, arrived)
        }
        buffered = IntervalJoinOperator(
            bound=0.5, handler=KSlackHandler(8.0), side_selector=side_by_value_sign
        )
        recovered = {
            (r.key, r.first_time, r.second_time)
            for r in drive_join(buffered, arrived)
        }
        assert lossy <= expected
        assert recovered <= expected
        assert len(recovered) > len(lossy)

    def test_store_is_pruned(self, rng):
        elements = make_two_sided(rng, duration=120, rate=40)
        arrived = [el.with_arrival(el.event_time) for el in elements]
        operator = IntervalJoinOperator(
            bound=1.0, handler=NoBufferHandler(), side_selector=side_by_value_sign
        )
        for element in arrived:
            operator.process(element)
        # Retention is bounded by the join bound, not the stream length.
        assert operator.stored_count() < len(arrived) / 4

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalJoinOperator(
                bound=-1.0, handler=NoBufferHandler(), side_selector=side_by_value_sign
            )

    def test_bad_side_rejected(self):
        operator = IntervalJoinOperator(
            bound=1.0, handler=NoBufferHandler(), side_selector=lambda el: "middle"
        )
        with pytest.raises(ConfigurationError):
            operator.process(
                StreamElement(event_time=1.0, value=0, key="k", arrival_time=1.0)
            )


def is_left(element: StreamElement) -> bool:
    return element.value >= 0


def is_right(element: StreamElement) -> bool:
    return element.value < 0


# The same query on the signed stream through both constructors, except
# that the pattern takes a left only *before* its right.
PAIR_OPERATORS = {
    "join": lambda handler, **kwargs: IntervalJoinOperator(
        0.5, handler, side_by_value_sign, **kwargs
    ),
    "pattern": lambda handler, **kwargs: SequencePatternOperator(
        is_left, is_right, within=0.5, handler=handler, **kwargs
    ),
}


@pytest.mark.parametrize("make", PAIR_OPERATORS.values(), ids=PAIR_OPERATORS.keys())
class TestBothPairOperators:
    def test_full_slack_is_complete_under_disorder(self, rng, make):
        arrived = inject_disorder(make_two_sided(rng), ExponentialDelay(1.0), rng)
        max_delay = max(el.delay for el in arrived)
        operator = make(KSlackHandler(max_delay + 1e-6), shadow_horizon=60.0)
        results = run_pipeline(arrived, operator).results
        emitted = [(r.key, r.first_time, r.second_time) for r in results]
        expected = oracle_pairs(arrived, operator.roles_of, operator.in_bound)
        assert len(emitted) == len(set(emitted)) == operator.emitted
        assert set(emitted) == expected
        assert operator.lost == 0

    def test_batched_sanitized_traced_run_equals_plain(self, rng, make):
        arrived = inject_disorder(make_two_sided(rng), ExponentialDelay(1.0), rng)
        plain = run_pipeline(arrived, make(KSlackHandler(0.5), shadow_horizon=10.0))
        guarded_operator = make(KSlackHandler(0.5), shadow_horizon=10.0)
        guarded = run_pipeline(
            arrived, guarded_operator,
            batch_size=256, sanitize=True, trace=TraceRecorder(),
        )
        assert plain.results
        assert guarded.results == plain.results
        assert guarded_operator.lost > 0


def test_quality_driven_join_traces_its_adaptations(rng):
    arrived = inject_disorder(
        make_two_sided(rng, duration=60, rate=80), ExponentialDelay(1.0), rng
    )
    plain = run_pipeline(
        arrived, QualityDrivenIntervalJoin(0.5, side_by_value_sign, threshold=0.05)
    )
    operator = QualityDrivenIntervalJoin(0.5, side_by_value_sign, threshold=0.05)
    trace = TraceRecorder()
    guarded = run_pipeline(
        arrived, operator, batch_size=256, sanitize=True, trace=trace
    )
    assert guarded.results == plain.results
    assert operator.handler.adaptations
    assert len(list(trace.of_kind("adaptation"))) == len(operator.handler.adaptations)
