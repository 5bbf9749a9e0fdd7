"""AQ-K's round log and the observed-error log: float64 columns that read
back as what was logged, and what one logged entry holds."""

import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptationLog, AdaptationRecord, AQKSlackHandler
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import make_aggregate
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import sliding
from repro.obs.trace import TraceRecorder
from repro.queries.language import ContinuousQuery
from repro.streams import (
    ExponentialDelay,
    MixtureDelay,
    ParetoDelay,
    generate_stream,
    inject_disorder,
)

#: A field value: ``None``, the non-finite floats, or any float.  A column
#: keeps one NaN (``math.nan``), so a drawn NaN is logged as that one.
cells = st.one_of(
    st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(lambda value: math.nan if math.isnan(value) else value),
)
records = st.builds(AdaptationRecord, cells, cells, cells, cells, cells, cells)


def log_of(rows):
    log = AdaptationLog()
    for row in rows:
        log.add_round(
            row.arrival_time, row.allowed_late_fraction, row.k_estimate,
            row.k_applied, row.observed_error_ewma, row.controller_gain,
        )
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=12), st.integers(-14, 14), st.integers(-14, 14))
def test_log_reads_back_what_was_logged(rows, lo, hi):
    log = log_of(rows)
    assert len(log) == len(rows)
    assert list(log) == rows
    assert log == rows and log == log_of(rows)
    assert log[lo:hi] == rows[lo:hi]
    assert log[::-1] == rows[::-1]
    for index in range(-len(rows), len(rows)):
        assert log[index] == rows[index]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            log[index]
    if rows:
        assert log != rows[:-1] and log != log_of(rows[:-1])
    assert pickle.loads(pickle.dumps(log)) == rows


def aqk_query(target, duration):
    """``naive_ingest_aqk``'s query and stream (perfbench's workload: eight
    keys, 100 elements/s, the default delay mix, sliding(10, 2) sum)."""
    rng = np.random.default_rng(42)
    stream = inject_disorder(
        generate_stream(duration, 100.0, rng, keys=tuple(f"k{i}" for i in range(8))),
        MixtureDelay([(0.9, ExponentialDelay(0.2)), (0.1, ParetoDelay(1.8, 1.0))]),
        rng,
    )
    handler = AQKSlackHandler(target, make_aggregate("sum"), window_size=10.0)
    query = ContinuousQuery().window(sliding(10.0, 2.0)).aggregate("sum").mode("naive")
    return stream, query.with_handler(handler).build_operator()


@pytest.mark.parametrize(
    "target", [QualityTarget(0.02), LatencyBudget(0.5), LatencyBudget(1)]
)
def test_adaptation_trace_records_are_the_log_rows(target):
    """The trace, the log and the handler carry one K, a float even when
    the budget is an int."""
    stream, operator = aqk_query(target, 60.0)
    recorder = TraceRecorder()
    run_pipeline(stream, operator, trace=recorder)
    log = operator.handler.adaptations
    assert type(operator.handler.k) is float
    assert all(
        type(e.fields["k_before"]) is type(e.fields["k_after"]) is float
        for e in recorder.of_kind("adaptation")
    )
    traced = [
        (e.sim_time, e.fields["allowed_late_fraction"], e.fields["k_estimate"],
         e.fields["k_after"], e.fields["error_ewma"], e.fields["gain"])
        for e in recorder.of_kind("adaptation")
    ]
    assert len(log) > 20
    assert traced == [tuple(getattr(row, name) for name in (
        "arrival_time", "allowed_late_fraction", "k_estimate", "k_applied",
        "observed_error_ewma", "controller_gain",
    )) for row in log]


def test_a_logged_round_and_a_logged_error_hold_a_few_floats():
    """Bytes freed by dropping each log after a ``naive_ingest_aqk`` run at
    scale 0.1: six floats per round and one per error.  A list of frozen
    records held about 200 B per round, a list of boxed floats plus the
    run output's copy about 30 B per error."""
    stream, operator = aqk_query(QualityTarget(0.02), 120.0)
    tracemalloc.start()
    try:
        output = run_pipeline(stream, operator)
        rounds, errors = len(operator.handler.adaptations), len(output.observed_errors)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        operator.handler.adaptations = type(operator.handler.adaptations)()
        gc.collect()
        per_round = (held - tracemalloc.get_traced_memory()[0]) / rounds
        held = tracemalloc.get_traced_memory()[0]
        output.observed_errors = operator.stats.observed_errors = None
        gc.collect()
        per_error = (held - tracemalloc.get_traced_memory()[0]) / errors
    finally:
        tracemalloc.stop()
    assert rounds > 100 and errors > 400
    assert per_round <= 64, per_round
    assert per_error <= 10, per_error
