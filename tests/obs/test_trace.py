"""TraceRecorder behaviour: dedup, detail gating, caps, routing."""

import math

import numpy as np
import pytest

from repro.engine.aggregate_op import EXECUTION_MODES, WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.obs.trace import EVENT_KINDS, NULL_TRACER, TraceRecorder
from tests.conftest import disordered_stream


def test_null_tracer_is_disabled_and_silent():
    assert NULL_TRACER.enabled is False
    # Every hook is a no-op even when called unguarded.
    NULL_TRACER.frontier_advance(1.0, 1.0, 0)
    NULL_TRACER.adaptation(1.0, 0.0, 1.0, 1.0, 0.05, None, None, None, "t")
    NULL_TRACER.meta(0.0, note="ignored")


def test_frontier_advances_are_deduplicated():
    recorder = TraceRecorder()
    recorder.frontier_advance(1.0, 5.0, 3)
    recorder.frontier_advance(1.5, 5.0, 4)  # re-observed, not an advance
    recorder.frontier_advance(2.0, 6.0, 2)
    advances = list(recorder.of_kind("frontier.advance"))
    assert [event.fields["frontier"] for event in advances] == [5.0, 6.0]


def test_detail_mode_gates_per_element_records():
    coarse = TraceRecorder(detail=False)
    coarse.element_admitted(1.0, 0.5, None)
    coarse.buffer_push(1.0, 1, 1)  # single push: detail only
    coarse.buffer_push(1.0, 8, 9)  # bulk push: always recorded
    assert [event.kind for event in coarse.events] == ["buffer.push"]

    fine = TraceRecorder(detail=True)
    fine.element_admitted(1.0, 0.5, None)
    fine.buffer_push(1.0, 1, 1)
    assert [event.kind for event in fine.events] == [
        "element.admitted",
        "buffer.push",
    ]


def test_max_events_cap_counts_dropped():
    recorder = TraceRecorder(max_events=2)
    for index in range(5):
        recorder.chunk(float(index), 1)
    assert len(recorder) == 2
    assert recorder.dropped == 3


def test_window_close_routes_flushed_to_window_flush():
    recorder = TraceRecorder()
    recorder.window_close(5.0, None, 0.0, 4.0, 7.0, 3, 1.0, flushed=False)
    recorder.window_close(5.0, None, 2.0, 6.0, 1.0, 1, math.nan, flushed=True)
    assert [event.kind for event in recorder.events] == [
        "window.close",
        "window.flush",
    ]


def test_clear_resets_events_and_dedup_state():
    recorder = TraceRecorder()
    recorder.frontier_advance(1.0, 5.0, 0)
    recorder.clear()
    assert len(recorder) == 0
    recorder.frontier_advance(2.0, 5.0, 0)  # same frontier records again
    assert len(recorder) == 1


def test_wall_times_are_nondecreasing():
    recorder = TraceRecorder()
    for index in range(50):
        recorder.chunk(float(index), 1)
    walls = [event.wall_time for event in recorder.events]
    assert walls == sorted(walls)
    assert all(wall >= 0.0 for wall in walls)


def test_every_recorded_kind_is_in_the_schema(burst_run):
    __, recorder = burst_run
    kinds = {event.kind for event in recorder.events}
    assert kinds <= set(EVENT_KINDS)
    # A burst run exercises the interesting parts of the schema.
    assert {
        "run.start",
        "run.end",
        "chunk",
        "buffer.release",
        "frontier.advance",
        "window.open",
        "window.retire",
        "adaptation",
    } <= kinds


def test_adaptation_records_carry_feedback_terms(burst_run):
    __, recorder = burst_run
    adaptation = next(recorder.of_kind("adaptation"))
    assert {
        "k_before",
        "k_after",
        "k_estimate",
        "allowed_late_fraction",
        "error_ewma",
        "gain",
        "residual",
        "target",
    } <= set(adaptation.fields)
    assert "error<=" in str(adaptation.fields["target"])


def _mode_run(mode, batch_size, trace=None):
    rng = np.random.default_rng(19)
    stream = disordered_stream(rng, duration=40, rate=40, mean_delay=1.0, keys=("a", "b"))
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(8, 2),
        make_aggregate("mean"),
        KSlackHandler(0.5),
        feedback_horizon=8.0,
        mode=mode,
    )
    return run_pipeline(stream, operator, batch_size=batch_size, trace=trace)


@pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batch64"])
@pytest.mark.parametrize("mode", EXECUTION_MODES)
def test_every_mode_records_the_same_protocol_events(mode, batch_size):
    """The driver traces the protocol once, whatever stores the windows."""

    def advances(recorder, *fields):
        return [
            (event.sim_time, *(event.fields[name] for name in fields))
            for event in recorder.of_kind("frontier.advance")
        ]

    scalar_naive, same_path_naive = TraceRecorder(), TraceRecorder()
    _mode_run("naive", 0, trace=scalar_naive)
    _mode_run("naive", batch_size, trace=same_path_naive)
    recorder = TraceRecorder()
    traced = _mode_run(mode, batch_size, trace=recorder)
    assert advances(scalar_naive, "frontier")
    assert advances(recorder, "frontier") == advances(scalar_naive, "frontier")
    # ``buffered`` is read after the whole chunk was offered, so it is
    # comparable within a path only.
    assert advances(recorder, "frontier", "buffered") == advances(
        same_path_naive, "frontier", "buffered"
    )
    # The handler and its buffer got the tracer too.
    assert any(recorder.of_kind("buffer.release"))
    closes = list(recorder.of_kind("window.close", "window.flush"))
    assert len(closes) == len(traced.results)
    retired = list(recorder.of_kind("window.retire"))
    assert len(retired) == len(traced.observed_errors) > 0
    assert [event.fields["error"] for event in retired] == traced.observed_errors
    untraced = _mode_run(mode, batch_size)
    assert traced.results == untraced.results
    assert traced.observed_errors == untraced.observed_errors
