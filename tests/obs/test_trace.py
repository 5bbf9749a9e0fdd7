"""TraceRecorder behaviour: dedup, detail gating, caps, routing, schema."""

import numpy as np
import pytest

from repro.engine.aggregate_op import EXECUTION_MODES, WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.parallel import ShardedWindowOperator
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import SanitizerError
from repro.obs.demo import burst_demo_run
from repro.obs.trace import EVENT_KINDS, NULL_TRACER, TraceRecorder
from tests.conftest import disordered_stream


def test_null_tracer_is_disabled_and_silent():
    assert NULL_TRACER.enabled is False
    # emit is a no-op even when called unguarded.
    NULL_TRACER.emit("frontier.advance", 1.0, frontier=1.0, buffered=0)
    NULL_TRACER.absorb([])


def test_frontier_advances_are_deduplicated():
    recorder = TraceRecorder()
    recorder.emit("frontier.advance", 1.0, frontier=5.0, buffered=3)
    recorder.emit("frontier.advance", 1.5, frontier=5.0, buffered=4)  # re-observed
    recorder.emit("frontier.advance", 2.0, frontier=6.0, buffered=2)
    advances = list(recorder.of_kind("frontier.advance"))
    assert [event.fields["frontier"] for event in advances] == [5.0, 6.0]


def test_detail_mode_gates_per_element_records():
    coarse = TraceRecorder(detail=False)
    coarse.emit("element.admitted", 1.0, event_time=0.5, key=None)
    coarse.emit("buffer.push", 1.0, count=1, buffered=1)  # single push: detail only
    coarse.emit("buffer.push", 1.0, count=8, buffered=9)  # bulk push: always recorded
    assert [event.kind for event in coarse.events] == ["buffer.push"]

    fine = TraceRecorder(detail=True)
    fine.emit("element.admitted", 1.0, event_time=0.5, key=None)
    fine.emit("buffer.push", 1.0, count=1, buffered=1)
    assert [event.kind for event in fine.events] == [
        "element.admitted",
        "buffer.push",
    ]


def test_max_events_cap_counts_dropped():
    recorder = TraceRecorder(max_events=2)
    for index in range(5):
        recorder.emit("buffer.release", float(index), count=1, buffered=0)
    assert len(recorder) == 2
    assert recorder.dropped == 3


def test_window_close_routes_flushed_to_window_flush():
    recorder = TraceRecorder()
    output = _mode_run("naive", 0, trace=recorder)
    flushed = [
        event.kind == "window.flush"
        for event in recorder.of_kind("window.close", "window.flush")
    ]
    assert flushed == [result.flushed for result in output.results]
    assert any(flushed) and not all(flushed)


def test_clear_resets_events_and_dedup_state():
    recorder = TraceRecorder()
    recorder.emit("frontier.advance", 1.0, frontier=5.0, buffered=0)
    recorder.clear()
    assert len(recorder) == 0
    recorder.emit("frontier.advance", 2.0, frontier=5.0, buffered=0)  # records again
    assert len(recorder) == 1


def test_wall_times_are_nondecreasing():
    recorder = TraceRecorder()
    for index in range(50):
        recorder.emit("buffer.release", float(index), count=1, buffered=0)
    walls = [event.wall_time for event in recorder.events]
    assert walls == sorted(walls)
    assert all(wall >= 0.0 for wall in walls)


class MiscountingHandler(NoBufferHandler):
    """Reports one release too many, so StreamSan's audit fails."""

    def released_count(self) -> int:
        return super().released_count() + 1


def _schema_runs():
    """Small runs that, together, record every kind of the schema."""
    yield burst_demo_run(duration=30.0, rate=20.0, batch_size=0, detail=True)[1]
    rng = np.random.default_rng(32)
    stream = disordered_stream(rng, duration=30, rate=20, mean_delay=1.5, keys=("a", "b"))
    for operator in (
        WindowAggregateOperator(
            SlidingWindowAssigner(8, 0.5), make_aggregate("count"), KSlackHandler(0.25),
            mode="tree",
        ),
        ShardedWindowOperator(
            2, SlidingWindowAssigner(4, 1), make_aggregate("mean"),
            lambda: KSlackHandler(1.0),
        ),
    ):
        recorder = TraceRecorder()
        run_pipeline(stream, operator, batch_size=64, trace=recorder)
        yield recorder
    recorder = TraceRecorder()
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(4, 1), make_aggregate("count"), MiscountingHandler()
    )
    with pytest.raises(SanitizerError, match=r"StreamSan\[accounting\]"):
        run_pipeline(stream, operator, sanitize=True, trace=recorder)
    yield recorder


def test_every_recorded_kind_is_in_the_schema():
    kinds = set()
    for recorder in _schema_runs():
        for event in recorder.events:
            assert tuple(event.fields) == EVENT_KINDS[event.kind], event
            kinds.add(event.kind)
    # Every kind is recorded by some run: the schema lists nothing dead.
    assert kinds == set(EVENT_KINDS)


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
        track_feedback=True,
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
    assert [event.fields["error"] for event in retired] == list(traced.observed_errors)
    untraced = _mode_run(mode, batch_size)
    assert traced.results == untraced.results
    assert traced.observed_errors == untraced.observed_errors
