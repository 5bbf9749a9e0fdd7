"""Proxies installed at the public seams, and the span log they write to.

Each proxy forwards every call to the object it wraps and records a span
(name, start, end) around it; nothing under ``src/`` changes and no
private attribute is read.  A span's parent is the innermost span that
contains it, and a layer's self time is its spans' duration minus what
their children cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import DisorderHandler
from repro.engine.operator import Operator
from repro.engine.parallel import ShardExecutor

_now = time.perf_counter


#: Span names, by the small integer the proxies record.
SPAN_NAMES = (
    "pipeline.run",
    "operator.process", "operator.process_many", "operator.finish",
    "handler.offer", "handler.offer_many", "handler.flush",
    "handler.observe_error", "handler.next_adaptation_offset",
    "process_pool.begin", "process_pool.dispatch", "process_pool.collect",
)
(
    PIPELINE_RUN,
    OPERATOR_PROCESS, OPERATOR_PROCESS_MANY, OPERATOR_FINISH,
    HANDLER_OFFER, HANDLER_OFFER_MANY, HANDLER_FLUSH,
    HANDLER_OBSERVE_ERROR, HANDLER_NEXT_ADAPTATION_OFFSET,
    POOL_BEGIN, POOL_DISPATCH, POOL_COLLECT,
) = range(len(SPAN_NAMES))


class SpanLog:
    """In-memory span store; written out when the benchmark ends.

    A proxy calls :meth:`add` as each call returns.  Spans live in flat
    arrays, not tuples: a scalar workload records two spans per element,
    and a hundred thousand live tuples made the garbage collector the
    biggest part of the tracing overhead.  Everything runs on one thread,
    so spans nest strictly and :meth:`parents` recovers each span's parent
    from the intervals afterwards instead of tracking a stack while timing.
    """

    def __init__(self) -> None:
        self.codes = array("b")
        self.starts = array("d")
        self.ends = array("d")

    def add(self, code: int, start: float, end: float) -> None:
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.codes)

    def names(self) -> list[str]:
        return [SPAN_NAMES[code] for code in self.codes]

    def parents(self) -> list[int]:
        """Index of the innermost span containing each span (-1 for a root)."""
        starts, ends = self.starts, self.ends
        order = sorted(range(len(self)), key=lambda i: (starts[i], -ends[i]))
        parent = [-1] * len(self)
        open_spans: list[int] = []
        for index in order:
            start = starts[index]
            while open_spans and ends[open_spans[-1]] <= start:
                open_spans.pop()
            if open_spans:
                parent[index] = open_spans[-1]
            open_spans.append(index)
        return parent


class SpanSummary:
    """Totals, self times and call counts per span name."""

    def __init__(self, log: SpanLog) -> None:
        names = log.names()
        duration = np.asarray(log.ends) - np.asarray(log.starts)
        #: Kept for the span dump: recovering parents is a full sort and sweep.
        self.parents = log.parents()
        parent = np.array(self.parents, dtype=np.intp)
        covered = np.zeros(len(names))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        self.calls = Counter(names)
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        for name, total, own in zip(names, duration.tolist(), self_time.tolist()):
            self.total[name] = self.total.get(name, 0.0) + total
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.durations.setdefault(name, []).append(total)

    def layer(self, table: dict[str, float], layer: str) -> float:
        """Sum of ``table`` over the span names of ``layer`` (``layer.*``)."""
        prefix = layer + "."
        return sum(value for name, value in table.items() if name.startswith(prefix))


class OperatorProxy(Operator):
    """Wraps the built operator: spans per call plus what each call handed back.

    ``handbacks`` holds, for every call that returned results,
    ``(elements fed so far, results returned, wall time of the return)``.
    """

    def __init__(self, inner: Operator, log: SpanLog) -> None:
        self.inner = inner
        self._span = log.add
        self.fed = 0
        self.handbacks: list[tuple[int, int, float]] = []
        #: Results that only came back from ``finish``.
        self.from_finish = 0

    # run_pipeline reads these two attributes off the operator it drives.
    @property
    def handler(self):
        return self.inner.handler

    @property
    def stats(self):
        return self.inner.stats

    def process(self, element):
        start = _now()
        out = self.inner.process(element)
        end = _now()
        self._span(OPERATOR_PROCESS, start, end)
        self.fed += 1
        if out:
            self.handbacks.append((self.fed, len(out), end))
        return out

    def process_many(self, elements):
        start = _now()
        out = self.inner.process_many(elements)
        end = _now()
        self._span(OPERATOR_PROCESS_MANY, start, end)
        self.fed += len(elements)
        if out:
            self.handbacks.append((self.fed, len(out), end))
        return out

    def finish(self):
        start = _now()
        out = self.inner.finish()
        end = _now()
        self._span(OPERATOR_FINISH, start, end)
        self.from_finish = len(out)
        if out:
            self.handbacks.append((self.fed, len(out), end))
        return out


class HandlerProxy(DisorderHandler):
    """Wraps a disorder handler (installed through ``with_handler``)."""

    def __init__(self, inner: DisorderHandler, log: SpanLog) -> None:
        self.inner = inner
        self._span = log.add
        self.offered = 0
        self.feedback_calls = 0

    def offer(self, element):
        start = _now()
        out = self.inner.offer(element)
        self._span(HANDLER_OFFER, start, _now())
        self.offered += 1
        return out

    def offer_many(self, elements):
        start = _now()
        out = self.inner.offer_many(elements)
        self._span(HANDLER_OFFER_MANY, start, _now())
        self.offered += len(elements)
        return out

    def flush(self):
        start = _now()
        out = self.inner.flush()
        self._span(HANDLER_FLUSH, start, _now())
        return out

    def observe_error(self, error):
        start = _now()
        self.inner.observe_error(error)
        self._span(HANDLER_OBSERVE_ERROR, start, _now())
        self.feedback_calls += 1

    def next_adaptation_offset(self, elements, start, stop):
        began = _now()
        out = self.inner.next_adaptation_offset(elements, start, stop)
        self._span(HANDLER_NEXT_ADAPTATION_OFFSET, began, _now())
        return out

    @property
    def frontier(self):
        return self.inner.frontier

    @property
    def current_slack(self):
        return self.inner.current_slack

    def buffered_count(self):
        return self.inner.buffered_count()

    def max_buffered_count(self):
        return self.inner.max_buffered_count()

    def released_count(self):
        return self.inner.released_count()

    def describe(self):
        return self.inner.describe()


class RecordingHandler(HandlerProxy):
    """Also records the push/release-threshold sequence for the buffer replay:
    per offer call, how many elements went in and the frontier afterwards."""

    def __init__(self, inner: DisorderHandler, log: SpanLog) -> None:
        super().__init__(inner, log)
        self.sizes: list[int] = []
        self.thresholds: list[float] = []

    def offer(self, element):
        out = super().offer(element)
        self.sizes.append(1)
        self.thresholds.append(self.inner.frontier)
        return out

    def offer_many(self, elements):
        out = super().offer_many(elements)
        self.sizes.append(len(elements))
        self.thresholds.append(self.inner.frontier)
        return out


class CountingAggregate(AggregateFunction):
    """Counts the folds an aggregate is asked to do; exact, no clocks.

    Picklable by import path, so it also crosses the process-pool boundary
    (where the workers' counts stay in the workers).
    """

    # ``_capture_wrapper`` reads the discipline off the class; every
    # workload aggregates with the compensated ``sum``.
    __numeric__ = "compensated"

    def __init__(self, inner: AggregateFunction) -> None:
        if type(inner).__numeric__ != self.__numeric__:
            raise ValueError(
                f"CountingAggregate wraps {self.__numeric__} aggregates, "
                f"got {type(inner).__name__} ({type(inner).__numeric__})"
            )
        self.inner = inner
        self.name = inner.name
        self.error_model_kind = inner.error_model_kind
        self.add_calls = 0
        self.add_many_values = 0
        self.merge_calls = 0
        self.result_calls = 0

    def create(self):
        return self.inner.create()

    def add(self, accumulator, value):
        self.add_calls += 1
        self.inner.add(accumulator, value)

    def add_many(self, accumulator, values):
        self.add_many_values += len(values)
        self.inner.add_many(accumulator, values)

    def merge(self, accumulator, other):
        self.merge_calls += 1
        return self.inner.merge(accumulator, other)

    def result(self, accumulator):
        self.result_calls += 1
        return self.inner.result(accumulator)

    def describe(self):
        return self.inner.describe()


class ExecutorProxy(ShardExecutor):
    """Wraps the streaming process-pool executor behind the executor seam."""

    streaming = True

    def __init__(self, inner: ShardExecutor, log: SpanLog, keep_chunks: bool = False) -> None:
        self.inner = inner
        self._span = log.add
        self.chunks = 0
        self.wire_bytes = 0
        #: Dispatched element slices, kept for the standalone codec timing.
        self.dispatched: list | None = [] if keep_chunks else None

    @property
    def chunk_size(self):
        return self.inner.chunk_size

    def validate(self, assigner, aggregate, handler):
        self.inner.validate(assigner, aggregate, handler)

    def begin(self, spec):
        start = _now()
        self.inner.begin(spec)
        self._span(POOL_BEGIN, start, _now())

    def dispatch(self, shard_id, elements):
        start = _now()
        n_bytes = self.inner.dispatch(shard_id, elements)
        self._span(POOL_DISPATCH, start, _now())
        self.chunks += 1
        self.wire_bytes += n_bytes
        if self.dispatched is not None:
            self.dispatched.append(elements)
        return n_bytes

    def collect(self):
        start = _now()
        runs = self.inner.collect()
        self._span(POOL_COLLECT, start, _now())
        return runs

    def describe(self):
        return self.inner.describe()


class ClockedStream:
    """Closed-loop source that notes the time every ``stride`` elements.

    ``run_pipeline`` iterates its input (scalar path) or slices it per batch;
    either way ``marks`` gets the wall time at which the element at each
    stride boundary was asked for, so one run splits into short segments
    that can be compared across repeats of the same input.
    """

    def __init__(self, elements, stride: int) -> None:
        self._elements = elements
        self._stride = stride
        self._next = 0
        self.marks: list[float] = []

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        elements, stride, marks = self._elements, self._stride, self.marks
        for start in range(0, len(elements), stride):
            marks.append(_now())
            yield from elements[start : start + stride]

    def __getitem__(self, item):
        if isinstance(item, slice) and item.start >= self._next:
            self.marks.append(_now())
            self._next = item.start + self._stride
        return self._elements[item]


class PacedStream:
    """Open-loop source: a slice is served only once its last element is due.

    ``run_pipeline`` slices its input per batch, so handing it this object
    paces the feed on a schedule that does not slow when the system slows.
    The schedule (``due``, seconds) starts at the first slice request;
    ``late`` records how long after its due time each slice was asked for.
    """

    def __init__(self, elements, due: np.ndarray) -> None:
        self._elements = elements
        self._due = due.tolist()
        self.origin: float | None = None
        self.late: list[float] = []

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, item):
        if not isinstance(item, slice):
            return self._elements[item]
        if self.origin is None:
            self.origin = _now()
        batch = self._elements[item]
        if batch:
            wait = self.origin + self._due[item.start + len(batch) - 1] - _now()
            if wait > 0:
                time.sleep(wait)
            self.late.append(max(0.0, -wait))
        return batch
