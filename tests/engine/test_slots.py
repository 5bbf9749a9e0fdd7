"""Guard: hot-path classes define ``__slots__`` (no per-instance dicts).

Every class below is instantiated per element, per slice, or per window on
the engine's hot paths; an accidental ``__dict__`` (one removed slot, one
added attribute outside ``__slots__``, a dataclass losing ``slots=True``)
silently costs ~100 bytes and a dict lookup per instance.  The assertion is
on *instances*, not the class: a slotted subclass of an unslotted base
still carries a dict.
"""

import pytest

from repro.engine.aggregate_op import (
    OperatorStats,
    _Cell,
    _ClosedRecord,
    _SliceAssignCache,
)
from repro.engine.buffer import SortingBuffer
from repro.engine.metrics import LatencySummary
from repro.engine.operator import WindowResult
from repro.engine.parallel import ShardSession
from repro.engine.partial_tree import _BlockFold, _SliceStore, _SliceTree
from repro.engine.aggregates import CountAggregate
from repro.engine.windows import SlidingWindowAssigner, Window
from repro.obs.trace import TraceEvent
from repro.streams.element import StreamElement, Watermark
from repro.streams.timebase import EventTimeFrontier, MonotoneFrontier


HOT_INSTANCES = [
    StreamElement(event_time=0.0, value=1.0, arrival_time=0.0, seq=0),
    Watermark(timestamp=0.0),
    Window(0.0, 1.0),
    WindowResult(
        key=None, window=Window(0.0, 1.0), value=1.0, count=1, emit_time=1.0,
        latency=0.0,
    ),
    MonotoneFrontier(),
    EventTimeFrontier(),
    SortingBuffer(),
    _SliceAssignCache(SlidingWindowAssigner(8, 1)),
    _Cell(0.0, 1.0, [], [Window(0.0, 8.0)]),
    _ClosedRecord(accumulator=[], emitted_value=0.0, emitted_count=0),
    OperatorStats(),
    LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0),
    TraceEvent(kind="run.end", sim_time=0.0, wall_time=0.0, fields={}),
    _SliceTree(CountAggregate(), 1.0, 8),
    _SliceStore(CountAggregate(), 1.0, 8.0, 8, 40.0, True),
    _BlockFold(0, 8),
    ShardSession(None),
]


@pytest.mark.parametrize(
    "instance", HOT_INSTANCES, ids=lambda obj: type(obj).__name__
)
def test_hot_path_instances_have_no_dict(instance):
    assert not hasattr(instance, "__dict__"), (
        f"{type(instance).__name__} instances carry a __dict__; "
        "add/restore __slots__ (or slots=True for dataclasses)"
    )
    assert hasattr(type(instance), "__slots__")
