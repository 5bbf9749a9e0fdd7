"""Each StreamSan checker must catch its deliberately buggy component."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizer import SanitizingHandler, SanitizingOperator
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import DisorderHandler, KSlackHandler, NoBufferHandler
from repro.engine.operator import Operator, WindowResult
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner, Window
from repro.errors import ConfigurationError, SanitizerError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream
from repro.streams.element import StreamElement


def element(event: float, arrival: float, seq: int) -> StreamElement:
    """One keyless element with explicit timestamps."""
    return StreamElement(event_time=event, value=1.0, arrival_time=arrival, seq=seq)


def small_stream():
    """A short disordered stream shared by the integration checks."""
    rng = np.random.default_rng(5)
    return inject_disorder(
        generate_stream(duration=12, rate=40, rng=rng), ExponentialDelay(0.3), rng
    )


def make_operator(handler: DisorderHandler) -> WindowAggregateOperator:
    """Sliding mean operator over the given handler."""
    return WindowAggregateOperator(
        SlidingWindowAssigner(size=2, slide=1), make_aggregate("mean"), handler
    )


# --------------------------------------------------------------------- #
# deliberately buggy handlers


class FrontierRegressingHandler(DisorderHandler):
    """BUG: the frontier moves backwards on every offer."""

    name = "bad-frontier"

    def __init__(self) -> None:
        self._offers = 0

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Release immediately while the frontier regresses."""
        self._offers += 1
        return [element]

    def flush(self) -> list[StreamElement]:
        """Nothing buffered."""
        return []

    @property
    def frontier(self) -> float:
        """Decreases with every offer — a contract violation."""
        return -float(self._offers)


class NaNFrontierHandler(DisorderHandler):
    """BUG: reports a NaN frontier."""

    name = "nan-frontier"

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Release immediately."""
        return [element]

    def flush(self) -> list[StreamElement]:
        """Nothing buffered."""
        return []

    @property
    def frontier(self) -> float:
        """NaN poisons every downstream window comparison."""
        return float("nan")


class HoardingHandler(DisorderHandler):
    """BUG: advances the frontier past elements it still buffers."""

    name = "hoarder"

    def __init__(self) -> None:
        self._held: list[StreamElement] = []
        self._max_event = float("-inf")

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Buffer everything while claiming the newest event as frontier."""
        self._held.append(element)
        self._max_event = max(self._max_event, element.event_time)
        return []

    def flush(self) -> list[StreamElement]:
        """Release at the very end only."""
        held, self._held = self._held, []
        return held

    @property
    def frontier(self) -> float:
        return self._max_event


class HalfReleasingHandler(DisorderHandler):
    """BUG: buffers until a newer element arrives, then releases only the
    first of what it holds while the frontier passes all of it."""

    name = "half-releaser"

    def __init__(self) -> None:
        self._held: list[StreamElement] = []
        self._frontier = float("-inf")

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Hold an element unless it is newer than what is held."""
        if self._held and element.event_time > self._held[0].event_time:
            self._frontier = element.event_time
            return [self._held.pop(0), element]
        self._held.append(element)
        return []

    def flush(self) -> list[StreamElement]:
        """Release the rest."""
        held, self._held = self._held, []
        return held

    @property
    def frontier(self) -> float:
        return self._frontier


class SwallowingHandler(DisorderHandler):
    """BUG: drops elements instead of releasing them, even at flush."""

    name = "swallower"

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Swallow the element."""
        return []

    def flush(self) -> list[StreamElement]:
        """The swallowed elements are gone."""
        return []

    @property
    def frontier(self) -> float:
        """Frontier stays unset so the per-offer release check passes."""
        return float("-inf")


class BadCheckpointHandler(DisorderHandler):
    """BUG: offer_many returns one checkpoint regardless of batch size."""

    name = "bad-checkpoints"

    def __init__(self) -> None:
        self._front = float("-inf")

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Release immediately."""
        self._front = max(self._front, element.event_time)
        return [element]

    def offer_many(self, elements):
        """Checkpoint count does not match the offered batch."""
        released = []
        for item in elements:
            released.extend(self.offer(item))
        return released, [(len(released), self.frontier)]

    def flush(self) -> list[StreamElement]:
        """Nothing buffered."""
        return []

    @property
    def frontier(self) -> float:
        return self._front


class MiscountingHandler(NoBufferHandler):
    """BUG: released_count over-reports by one."""

    name = "miscounter"

    def released_count(self) -> int:
        """One more than the truth."""
        return super().released_count() + 1


class PhantomBufferHandler(NoBufferHandler):
    """BUG: claims a buffered element although everything was released."""

    name = "phantom-buffer"

    def buffered_count(self) -> int:
        """Reports one element that does not exist."""
        return 1


# --------------------------------------------------------------------- #
# handler checker tests


def run_scalar(handler: DisorderHandler, elements) -> None:
    """Drive a sanitized handler through offers and a final flush."""
    wrapped = SanitizingHandler(handler)
    for item in elements:
        wrapped.offer(item)
    wrapped.flush()


def test_frontier_regression_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[frontier\].*backwards"):
        run_scalar(
            FrontierRegressingHandler(),
            [element(1.0, 1.5, 0), element(2.0, 2.5, 1)],
        )


def test_nan_frontier_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[frontier\].*NaN"):
        run_scalar(NaNFrontierHandler(), [element(1.0, 1.5, 0)])


def test_element_lingering_below_frontier_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[release\].*still buffered"):
        run_scalar(HoardingHandler(), [element(1.0, 1.5, 0)])


def test_one_of_two_equal_elements_held_past_the_frontier_is_caught():
    # StreamSan counts in-flight elements per (event_time, seq): releasing
    # one of two field-equal elements leaves the other one on the books.
    twins = [element(1.0, 1.5, 0), element(1.0, 1.5, 0)]
    with pytest.raises(SanitizerError, match=r"StreamSan\[release\].*still buffered"):
        run_scalar(HalfReleasingHandler(), [*twins, element(2.0, 2.5, 1)])


def test_swallowed_elements_are_caught_at_flush():
    with pytest.raises(SanitizerError, match=r"StreamSan\[release\].*never released"):
        run_scalar(SwallowingHandler(), [element(1.0, 1.5, 0), element(2.0, 2.5, 1)])


def test_bad_checkpoints_are_caught():
    wrapped = SanitizingHandler(BadCheckpointHandler())
    with pytest.raises(SanitizerError, match=r"StreamSan\[checkpoints\]"):
        wrapped.offer_many([element(1.0, 1.5, 0), element(2.0, 2.5, 1)])


def test_released_count_mismatch_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[accounting\].*released_count"):
        run_scalar(MiscountingHandler(), [element(1.0, 1.5, 0)])


def test_buffered_count_mismatch_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[accounting\].*buffered_count"):
        run_scalar(PhantomBufferHandler(), [element(1.0, 1.5, 0)])


def test_out_of_arrival_order_input_is_caught():
    wrapped = SanitizingHandler(NoBufferHandler())
    wrapped.offer(element(1.0, 5.0, 1))
    with pytest.raises(SanitizerError, match=r"StreamSan\[input-order\]"):
        wrapped.offer(element(1.0, 2.0, 0))


# --------------------------------------------------------------------- #
# deliberately buggy operators


class ScriptedOperator(Operator):
    """Emits a pre-scripted result list per process call (no handler)."""

    def __init__(self, script: list[list[WindowResult]]) -> None:
        self.script = script
        self._calls = 0

    def process(self, element: StreamElement) -> list[WindowResult]:
        """Pop the next scripted emission."""
        results = self.script[self._calls]
        self._calls += 1
        return results

    def finish(self) -> list[WindowResult]:
        """Nothing buffered."""
        return []


def result(
    start: float,
    end: float,
    emit: float,
    revision: int = 0,
    latency: float | None = None,
) -> WindowResult:
    """A window result with a consistent latency unless overridden."""
    return WindowResult(
        key=None,
        window=Window(start, end),
        value=1.0,
        count=1,
        emit_time=emit,
        latency=emit - end if latency is None else latency,
        revision=revision,
    )


def test_duplicate_emission_is_caught():
    twice = result(0.0, 1.0, 2.0)
    op = SanitizingOperator(ScriptedOperator([[twice], [twice]]))
    op.process(element(1.0, 1.5, 0))
    with pytest.raises(SanitizerError, match=r"StreamSan\[retirement\].*twice"):
        op.process(element(2.0, 2.5, 1))


def test_emission_before_frontier_is_caught():
    inner = make_operator(NoBufferHandler())
    op = SanitizingOperator(inner)
    # Inject a result for a window far beyond the current frontier.
    premature = result(0.0, 100.0, 100.5)
    with pytest.raises(SanitizerError, match=r"StreamSan\[retirement\].*frontier"):
        op._check_results([premature], flushing=False)


def test_backwards_emit_time_is_caught():
    op = SanitizingOperator(
        ScriptedOperator([[result(0.0, 1.0, 5.0)], [result(1.0, 2.0, 3.0)]])
    )
    op.process(element(1.0, 1.5, 0))
    with pytest.raises(SanitizerError, match=r"StreamSan\[retirement\].*backwards"):
        op.process(element(2.0, 2.5, 1))


def test_inconsistent_latency_is_caught():
    bad = result(0.0, 1.0, 2.0, latency=9.0)
    op = SanitizingOperator(ScriptedOperator([[bad]]))
    with pytest.raises(SanitizerError, match=r"StreamSan\[retirement\].*latency"):
        op.process(element(1.0, 1.5, 0))


# --------------------------------------------------------------------- #
# configuration and integration


@pytest.mark.parametrize("kind", ["thread", "race"])
def test_pipeline_rejects_unknown_sanitizer(kind):
    with pytest.raises(ConfigurationError, match="True or False"):
        run_pipeline([], make_operator(KSlackHandler(0.5)), sanitize=kind)


def test_sanitized_run_matches_plain_run():
    stream = small_stream()
    plain = run_pipeline(stream, make_operator(KSlackHandler(0.5)))
    checked = run_pipeline(stream, make_operator(KSlackHandler(0.5)), sanitize=True)
    assert checked.results == plain.results
    assert checked.metrics.released_count == plain.metrics.released_count


def test_sanitized_batched_run_matches_plain_batched_run():
    stream = small_stream()
    plain = run_pipeline(stream, make_operator(KSlackHandler(0.5)), batch_size=100)
    checked = run_pipeline(
        stream, make_operator(KSlackHandler(0.5)), batch_size=100, sanitize=True
    )
    assert checked.results == plain.results
    assert checked.metrics.released_count == plain.metrics.released_count


def test_sanitizer_forwards_concrete_handler_attributes():
    op = SanitizingOperator(make_operator(KSlackHandler(0.75)))
    assert op.handler is not None
    assert op.handler.k == 0.75
    assert "streamsan" in op.handler.describe()


# --------------------------------------------------------------------- #
# multisource pipeline under StreamSan


def multisource_stream():
    """Two keyed, mutually skewed sources merged into one arrival stream."""
    from repro.streams.multisource import merge_streams

    rng = np.random.default_rng(13)
    sources = []
    for name, mean_delay in (("a", 0.2), ("b", 0.6)):
        ordered = generate_stream(duration=12, rate=25, rng=rng, keys=[name])
        sources.append(inject_disorder(ordered, ExponentialDelay(mean_delay), rng))
    return merge_streams(sources)


def make_multisource_operator():
    """Sliding mean over a per-source watermark handler."""
    from repro.engine.multisource import MultiSourceWatermarkHandler

    handler = MultiSourceWatermarkHandler(
        source_of=lambda e: e.key, lag=0.5, expected_sources={"a", "b"}
    )
    return WindowAggregateOperator(
        SlidingWindowAssigner(size=2, slide=1), make_aggregate("mean"), handler
    )


def test_multisource_pipeline_passes_sanitizer():
    stream = multisource_stream()
    plain = run_pipeline(stream, make_multisource_operator())
    checked = run_pipeline(stream, make_multisource_operator(), sanitize=True)
    assert checked.results == plain.results
    assert checked.metrics.released_count == plain.metrics.released_count
    assert checked.metrics.n_results > 0


def test_multisource_batched_pipeline_passes_sanitizer():
    stream = multisource_stream()
    plain = run_pipeline(stream, make_multisource_operator(), batch_size=64)
    checked = run_pipeline(
        stream, make_multisource_operator(), batch_size=64, sanitize=True
    )
    assert checked.results == plain.results
    assert checked.metrics.n_results > 0


def test_multisource_sanitizer_catches_seeded_frontier_bug():
    """A regressing multisource frontier must trip the frontier checker."""
    from repro.engine.multisource import MultiSourceWatermarkHandler

    class RegressingMultiSource(MultiSourceWatermarkHandler):
        """BUG: reports a frontier that ignores the monotone store."""

        @property
        def frontier(self) -> float:
            # Recompute from live sources without the monotone clamp: when
            # a new source first speaks behind the others the raw minimum
            # moves back.
            if not self._sources:
                return float("-inf")
            return self._live_minimum() - self.lag

    handler = RegressingMultiSource(source_of=lambda e: e.key, lag=0.5)
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(size=2, slide=1), make_aggregate("mean"), handler
    )
    with pytest.raises(SanitizerError, match="frontier"):
        run_pipeline(multisource_stream(), operator, sanitize=True)
