"""Tests for multi-source merging and frontier combination."""

import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import CountAggregate
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import TumblingWindowAssigner
from repro.errors import ConfigurationError
from repro.streams.delay import ConstantDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement, ensure_arrival_order
from repro.streams.generators import generate_stream
from repro.engine.watermarks import MultiSourceWatermarkHandler
from repro.streams.multisource import merge_streams


def source_stream(rng, key, duration=30, rate=20, delay=0.2):
    base = generate_stream(duration=duration, rate=rate, rng=rng)
    keyed = [
        StreamElement(event_time=el.event_time, value=el.value, key=key, seq=el.seq)
        for el in base
    ]
    return inject_disorder(keyed, ConstantDelay(delay), rng)


def el(source, ts, at):
    return StreamElement(event_time=ts, value=0.0, key=source, arrival_time=at)


class TestMergeStreams:
    def test_result_arrival_ordered(self, rng):
        merged = merge_streams(
            [source_stream(rng, "a"), source_stream(rng, "b", delay=1.0)]
        )
        ensure_arrival_order(merged)

    def test_preserves_all_elements(self, rng):
        streams = [source_stream(rng, "a"), source_stream(rng, "b")]
        merged = merge_streams(streams)
        assert len(merged) == sum(len(s) for s in streams)

    def test_seq_unique(self, rng):
        merged = merge_streams(
            [source_stream(rng, "a"), source_stream(rng, "b")]
        )
        seqs = [element.seq for element in merged]
        assert len(seqs) == len(set(seqs))

    def test_requires_arrival_times(self, rng):
        plain = generate_stream(duration=5, rate=10, rng=rng)
        with pytest.raises(ConfigurationError):
            merge_streams([plain])

    def test_empty(self):
        assert merge_streams([]) == []


class TestMultiSourceWatermarkHandler:
    def test_frontier_is_minimum_over_sources(self):
        handler = MultiSourceWatermarkHandler(
            source_of=lambda e: e.key, expected_sources={"fast", "slow"}
        )
        handler.offer(el("fast", 10.0, 10.0))
        assert handler.frontier == float("-inf")  # slow source not seen yet
        handler.offer(el("slow", 2.0, 10.1))
        # The slow source pins the frontier.
        assert handler.frontier == 2.0
        handler.offer(el("slow", 8.0, 10.2))
        assert handler.frontier == 8.0

    def test_lag_subtracted(self):
        handler = MultiSourceWatermarkHandler(source_of=lambda e: e.key, lag=1.5)
        handler.offer(el("s", 10.0, 10.0))
        assert handler.frontier == 8.5

    def test_frontier_monotone(self):
        handler = MultiSourceWatermarkHandler(source_of=lambda e: e.key)
        handler.offer(el("a", 10.0, 10.0))
        handler.offer(el("b", 5.0, 10.1))
        before = handler.frontier
        handler.offer(el("c", 1.0, 10.2))  # new slower source appears
        assert handler.frontier >= before  # never regresses

    def test_idle_source_released_after_timeout(self):
        handler = MultiSourceWatermarkHandler(
            source_of=lambda e: e.key,
            idle_timeout=5.0,
            expected_sources={"dead", "live"},
        )
        handler.offer(el("dead", 1.0, 1.0))
        handler.offer(el("live", 3.5, 4.0))
        assert handler.frontier == 1.0  # dead source still live
        handler.offer(el("live", 20.0, 20.0))  # dead silent for 19s > 5s
        assert handler.frontier == 20.0
        assert handler.idle_sources() == ["dead"]

    def test_idle_source_rejoins(self):
        handler = MultiSourceWatermarkHandler(
            source_of=lambda e: e.key,
            idle_timeout=5.0,
            expected_sources={"a", "b"},
        )
        handler.offer(el("a", 1.0, 1.0))
        handler.offer(el("b", 2.0, 2.0))
        assert handler.frontier == 1.0
        handler.offer(el("b", 10.0, 10.0))  # a silent for 9s > 5s: idle
        assert handler.frontier == 10.0
        handler.offer(el("a", 9.5, 10.5))  # a wakes up behind the frontier
        assert handler.frontier == 10.0  # monotone despite rejoin
        assert handler.idle_sources() == []

    def test_offering_source_is_never_idle(self):
        """A source is stamped with the handler's arrival clock, so the one
        that just spoke is live even when its arrival time went back."""
        handler = MultiSourceWatermarkHandler(
            source_of=lambda e: e.key, idle_timeout=1.0
        )
        for source, ts, at in (
            ("a", 5.0, 5.0),
            ("a", 6.0, 16.0),  # a silent for 11s > 1s, but it just spoke
            ("b", 7.0, 17.0),
            ("a", 8.0, 9.0),  # arrival regression: 8s behind the clock
            ("b", 9.0, 10.0),
        ):
            handler.offer(el(source, ts, at))
            assert source not in handler.idle_sources()
        assert handler.idle_sources() == []
        assert handler.frontier == 8.0

    def test_requires_arrival(self):
        handler = MultiSourceWatermarkHandler(source_of=lambda e: e.key)
        with pytest.raises(ConfigurationError):
            handler.offer(StreamElement(event_time=1.0, value=0.0))

    @pytest.mark.parametrize("kwargs", [{"lag": -1.0}, {"idle_timeout": 0.0}])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MultiSourceWatermarkHandler(source_of=lambda e: e.key, **kwargs)

    def test_end_to_end_exactness_with_skewed_sources(self, rng):
        """Two mutually-skewed but internally-ordered sources: the min
        frontier yields exact results."""
        fast = source_stream(rng, "fast", delay=0.1)
        slow = source_stream(rng, "slow", delay=3.0)
        merged = merge_streams([fast, slow])
        assigner = TumblingWindowAssigner(5.0)
        aggregate = CountAggregate()
        operator = WindowAggregateOperator(
            assigner,
            aggregate,
            MultiSourceWatermarkHandler(source_of=lambda e: e.key),
        )
        output = run_pipeline(merged, operator)
        truth = oracle_results(merged, assigner, aggregate)
        emitted = {(r.key, r.window): r.value for r in output.results}
        assert emitted == {slot: value for slot, (value, __) in truth.items()}
        assert operator.stats.late_dropped == 0
