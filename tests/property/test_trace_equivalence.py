"""Property test: tracing is observation only, never interference.

Hypothesis generates random disordered streams, handlers and batch sizes
and asserts that a run with a :class:`TraceRecorder` attached (detail mode
on, live registry plugged in) produces **bit-identical** observable state
to the untraced run: window results, observed errors, late drops and
released counts.  Trace hooks execute after the fact on values the engine
already computed, so even re-associating aggregates must match exactly —
both runs execute the same arithmetic in the same order.  One scenario in
three is a :mod:`tests.cell_cases` stream under its own window and K-slack:
the ``window.open`` and ``late.drop`` hooks sit where the per-window store
builds, reuses and drops its cells.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.streams.element import StreamElement
from tests.cell_cases import cell_cases

HANDLERS = {
    "no-buffer": lambda: NoBufferHandler(),
    "k-slack": lambda: KSlackHandler(0.8),
    "aqk-quality": lambda: AQKSlackHandler(
        QualityTarget(0.05), "mean", window_size=3.0, warmup_elements=20
    ),
}


@st.composite
def scenarios(draw):
    """``(elements, operator factory, batch size)``."""
    aggregate_name = draw(st.sampled_from(["count", "mean", "max"]))
    batch_size = draw(st.sampled_from([0, 7, 32]))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        case = draw(
            cell_cases(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
        )
        track_feedback = draw(st.booleans())

        def make_cell_operator():
            return WindowAggregateOperator(
                SlidingWindowAssigner(case.size, case.slide),
                make_aggregate(aggregate_name),
                KSlackHandler(case.slack),
                track_feedback=track_feedback,
            )

        return case.stream, make_cell_operator, batch_size
    n = draw(st.integers(min_value=30, max_value=70))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    handler_name = draw(st.sampled_from(sorted(HANDLERS)))

    event_time = 0.0
    elements = []
    for seq in range(n):
        event_time += gaps[seq]
        elements.append(
            StreamElement(
                event_time=event_time,
                value=values[seq],
                arrival_time=event_time + delays[seq],
                seq=seq,
            )
        )
    elements.sort(key=StreamElement.arrival_sort_key)

    def make_operator():
        return WindowAggregateOperator(
            SlidingWindowAssigner(3.0, 1.0),
            make_aggregate(aggregate_name),
            HANDLERS[handler_name](),
            feedback_horizon=6.0,
        )

    return elements, make_operator, batch_size


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_traced_run_is_bit_identical_to_untraced(scenario):
    elements, make_operator, batch_size = scenario

    plain = run_pipeline(list(elements), make_operator(), batch_size=batch_size)

    recorder = TraceRecorder(detail=True)
    registry = MetricsRegistry()
    traced = run_pipeline(
        list(elements),
        make_operator(),
        batch_size=batch_size,
        trace=recorder,
        registry=registry,
    )

    assert len(recorder.events) > 0
    assert len(plain.results) == len(traced.results)
    for expected, actual in zip(plain.results, traced.results):
        assert (
            expected.key,
            expected.window,
            expected.value,
            expected.count,
            expected.emit_time,
            expected.latency,
            expected.revision,
            expected.flushed,
        ) == (
            actual.key,
            actual.window,
            actual.value,
            actual.count,
            actual.emit_time,
            actual.latency,
            actual.revision,
            actual.flushed,
        )
    assert plain.observed_errors == traced.observed_errors
    assert plain.metrics.late_dropped == traced.metrics.late_dropped
    assert plain.metrics.released_count == traced.metrics.released_count
    assert plain.metrics.n_elements == traced.metrics.n_elements
    assert plain.metrics.n_results == traced.metrics.n_results
    # The live registry saw the same totals the metrics object reports.
    assert registry.counter("pipeline.elements_in").value == traced.metrics.n_elements
    assert registry.counter("pipeline.results_out").value == traced.metrics.n_results
