"""Property test: RaceSan instrumentation never perturbs a run.

Hypothesis generates random disordered streams, handlers, operators and
batch sizes and asserts that ``run_pipeline(sanitize="race")`` is
**bit-identical** to the unsanitized run: same window results, same
observed errors, same counters.  The lockset detector only observes
attribute accesses — and a single-threaded run can never produce a
finding, because every location stays in its exclusive phase.
"""

from __future__ import annotations

import functools
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement

HANDLERS = {
    "no-buffer": lambda: NoBufferHandler(),
    "k-slack": lambda: KSlackHandler(0.8),
    "aqk-quality": lambda: AQKSlackHandler(
        QualityTarget(0.05), "mean", window_size=3.0, warmup_elements=20
    ),
}

OPERATORS = {
    "flat": WindowAggregateOperator,
    "tree": functools.partial(WindowAggregateOperator, mode="tree"),
}


@st.composite
def scenarios(draw):
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
    operator_name = draw(st.sampled_from(sorted(OPERATORS)))
    aggregate_name = draw(st.sampled_from(["count", "mean", "max"]))
    batch_size = draw(st.sampled_from([0, 7, 32]))

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
    return elements, handler_name, operator_name, aggregate_name, batch_size


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_race_sanitized_run_is_bit_identical_to_off(scenario):
    elements, handler_name, operator_name, aggregate_name, batch_size = scenario

    def make_operator():
        return OPERATORS[operator_name](
            SlidingWindowAssigner(3.0, 1.0),
            make_aggregate(aggregate_name),
            HANDLERS[handler_name](),
            feedback_horizon=6.0,
        )

    plain = run_pipeline(
        list(elements), make_operator(), sample_every=10, batch_size=batch_size
    )
    raced = run_pipeline(
        list(elements),
        make_operator(),
        sample_every=10,
        batch_size=batch_size,
        sanitize="race",
    )

    assert raced.results == plain.results
    assert raced.observed_errors == plain.observed_errors
    assert raced.metrics.slack_timeline == plain.metrics.slack_timeline
    assert raced.metrics.n_results == plain.metrics.n_results
    assert raced.metrics.late_dropped == plain.metrics.late_dropped
    assert raced.metrics.released_count == plain.metrics.released_count
