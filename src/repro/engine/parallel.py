"""Sharded parallel execution: keyed partitioning with a deterministic merge.

:class:`ShardedWindowOperator` partitions an arrival-ordered stream across
``n`` worker shards by a routing key.  Each shard runs a completely
independent operator — its own execution mode (naive/tree), its own
disorder handler built fresh from a factory (so adaptive AQ-K state never
crosses shards), and its own per-shard event-time frontier.  A
:class:`ShardExecutor` feeds every shard its routed chunks while the
stream arrives; when the stream ends it finishes every non-empty shard
and a deterministic merge stage combines the per-shard window results
with the existing mergeable-aggregate machinery
(:meth:`~repro.engine.aggregates.AggregateFunction.merge`).

Semantics (the *shard contract*, documented in ``docs/SCALING.md``):

* Elements are routed by key, so a keyed window ``(key, window)`` normally
  lives in exactly one shard and its merged value is the shard's value,
  bit for bit.  When one logical group spans shards (unkeyed streams are
  routed round-robin), the merge folds the captured per-shard accumulators
  in shard order — bit-identical for exact aggregates (count/min/max),
  within the declared ``__numeric__`` drift budget for compensated ones.
* A merged window closes at the **minimum frontier across the non-empty
  shards**: its emit time is the arrival instant at which the *last*
  shard's frontier passed the window end, and windows some shard never
  closed are flushed at stream end.  Shard frontiers only ever lag the
  global frontier, so sharded execution is at least as complete as
  unsharded execution (it drops no element an unsharded run would keep).
* The merged output is in canonical order: ``(emit_time, flushed,
  window.end, window.start, repr(key))``, then first-seen rank (shard
  order, then emission order within a shard).  Shard frontiers never
  step back, so a merged window's emit time (a max over shards of a step
  function of its end) is nondecreasing in the end, and every flushed
  window ends past the minimum frontier, i.e. past every closed one:
  the same order is ``(window.end, window.start, repr(key), rank)``, and
  the merge produces it by one walk over the distinct ends.

The executor seam: the coordinator speaks one protocol to however shards
actually run — ``begin(spec)`` once, ``dispatch(shard_id, elements)`` per
routed chunk while the stream is still arriving, ``collect()`` at stream
end.  The base :class:`ShardExecutor` drives a :class:`ShardSession`
in-process (the reference);
:class:`~repro.engine.process_pool.ProcessShardExecutor` ships the same
chunks to worker processes that each drive the same session class, so
per-shard semantics agree across executors because both run the same
lines.  Shard operators are created, driven and finished entirely inside
their session, and the coordinator reads shard state only from the
columnar :class:`_ShardRun` records ``collect`` returns, so shard state
is private to its session and per-shard sanitizers run clean.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence, cast

import numpy as np

from repro.analysis import guard_operator
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import AggregateFunction
from repro.engine.handlers import DisorderHandler
from repro.engine.operator import Operator, WindowResult
from repro.engine.windows import Window, WindowAssigner
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, TraceRecorder, Tracer
from repro.streams.element import StreamElement
from repro.streams.timebase import ArrivalTimeStamp, DurationS, EventTimeStamp

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ShardExecutor",
    "ShardRunner",
    "ShardSession",
    "ShardSpec",
    "ShardedHandlerView",
    "ShardedWindowOperator",
    "stable_shard",
]

#: Hard cap on the shard count: far past the point where per-shard
#: windows are too sparse to be useful.
MAX_SHARDS = 64

#: Elements per dispatched chunk.  Large enough that the fixed per-chunk
#: costs (queue round trip, header, key-table pickle) amortize to well
#: under a microsecond per element, small enough that workers start
#: computing long before stream end (see the tuning table in
#: ``docs/SCALING.md``).
DEFAULT_CHUNK_SIZE = 512


def stable_shard(routing_key: object, n_shards: int) -> int:
    """Deterministic shard index for a routing key.

    Python's builtin ``hash`` is salted per process, which would re-route
    every key on every run; CRC-32 of the key's ``repr`` is stable across
    processes and Python versions, so shard assignment is part of the
    reproducible configuration rather than an accident of the interpreter.
    """
    return zlib.crc32(repr(routing_key).encode("utf-8")) % n_shards


# --------------------------------------------------------------------- #
# partial capture: keep the mergeable accumulator of groups that can split


class _Partial(float):
    """A window value that remembers the accumulator it came from.

    Only made while a shard is capturing (see :class:`ShardRunner`): the
    value must stay an ordinary float for the quality feedback loop, and
    the runner moves the accumulator into its run's column as soon as the
    result is handed back.
    """

    __slots__ = ("accumulator",)

    accumulator: Any

    def __new__(cls, value: float, accumulator: Any) -> "_Partial":
        self = super().__new__(cls, value)
        self.accumulator = accumulator
        return self

    def __reduce__(self) -> tuple[Any, ...]:
        # A traced shard records result values in its trace events; on the
        # way back to the coordinator those are just the floats.
        return (float, (float(self),))


def _snapshot(accumulator: Any) -> Any:
    """Copy an accumulator so the merge stage owns it outright."""
    if isinstance(accumulator, list):
        return list(accumulator)
    if isinstance(accumulator, set):
        return set(accumulator)
    import copy

    return copy.deepcopy(accumulator)


class _PartialCaptureAggregate:
    """Delegating aggregate whose ``result`` can tag values with their state.

    Routing by element key keeps a keyed group inside one shard, so its
    value is final and no accumulator needs to travel; ``capturing`` is
    switched on only for shards whose groups can span shards (a custom
    routing key, or ``None`` keys dealt round-robin).

    Not an :class:`AggregateFunction` subclass on purpose: instances are
    created per shard with an instance-dependent numeric discipline, and
    the static numeric inventory requires literal ``__numeric__``
    declarations on the real lineage.  The per-discipline subclasses below
    carry the literal the NumSan shadow resolves at type level, so
    ``run_pipeline(sanitize="numeric")`` budgets shard results exactly as
    it budgets the inner aggregate.
    """

    __slots__ = ("inner", "name", "error_model_kind", "capturing")

    def __init__(self, inner: AggregateFunction) -> None:
        self.inner = inner
        self.name = inner.name
        self.error_model_kind = inner.error_model_kind
        self.capturing = False

    def create(self) -> Any:
        return self.inner.create()

    def add(self, accumulator: Any, value: float) -> None:
        self.inner.add(accumulator, value)

    def add_many(self, accumulator: Any, values: list[float]) -> None:
        self.inner.add_many(accumulator, values)

    def merge(self, accumulator: Any, other: Any) -> Any:
        return self.inner.merge(accumulator, other)

    def result(self, accumulator: Any) -> float:
        value = self.inner.result(accumulator)
        if self.capturing:
            return _Partial(value, _snapshot(accumulator))
        return value

    def describe(self) -> str:
        return f"shard-capture({self.inner.describe()})"


class _PartialCaptureExact(_PartialCaptureAggregate):
    __numeric__ = "exact"


class _PartialCaptureCompensated(_PartialCaptureAggregate):
    __numeric__ = "compensated"


class _PartialCaptureReassoc(_PartialCaptureAggregate):
    __numeric__ = "reassoc-tolerant"


_CAPTURE_BY_DISCIPLINE: dict[str, type[_PartialCaptureAggregate]] = {
    "exact": _PartialCaptureExact,
    "compensated": _PartialCaptureCompensated,
    "reassoc-tolerant": _PartialCaptureReassoc,
}


def _capture_wrapper(inner: AggregateFunction) -> _PartialCaptureAggregate:
    """Wrap ``inner`` in the capture class matching its discipline."""
    discipline = getattr(type(inner), "__numeric__", None)
    wrapper_class = _CAPTURE_BY_DISCIPLINE.get(
        discipline if isinstance(discipline, str) else ""
    )
    if wrapper_class is None:
        raise ConfigurationError(
            f"cannot shard aggregate {type(inner).__name__}: it declares "
            f"no known __numeric__ discipline ({discipline!r})"
        )
    return wrapper_class(inner)


# --------------------------------------------------------------------- #
# shard spec, outcomes, the per-shard session and the executor seam


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """Everything a :class:`ShardSession` needs to carry one run's shards.

    Built by the coordinator at its first dispatch and handed to the
    executor's ``begin``.  ``handler_factory`` is called once per shard,
    so per-shard adaptive state never crosses shards; in-process it is
    the caller's own factory and need not pickle.
    """

    n_shards: int
    mode: str
    assigner: WindowAssigner
    aggregate: AggregateFunction
    handler_factory: Callable[[], DisorderHandler]
    feedback_horizon: DurationS | None
    track_feedback: bool
    sanitize: str | None
    trace_enabled: bool
    trace_detail: bool
    #: Whether routing can split a keyed group over shards (a custom
    #: routing key is in use); ``None``-keyed groups always can.
    split_keyed: bool = False


@dataclass(slots=True)
class _ShardRun:
    """Everything one shard reports back to the coordinator, as columns.

    Built entirely inside the shard's session and only read after
    ``collect`` (initialise-then-publish), so no field needs a lock.  One
    row per emitted window, in emission order; ``array`` columns cross
    the process boundary as raw buffers, never as per-result objects.
    """

    shard_id: int
    #: Distinct result keys in first-seen order, and each row's index
    #: into them.
    keys: list[object] = field(default_factory=list)
    key_index: array[int] = field(default_factory=lambda: array("I"))
    starts: array[float] = field(default_factory=lambda: array("d"))
    ends: array[float] = field(default_factory=lambda: array("d"))
    values: array[float] = field(default_factory=lambda: array("d"))
    counts: array[int] = field(default_factory=lambda: array("q"))
    #: Accumulator snapshot per row whose group routing can split across
    #: shards (``None`` for the other rows); empty when no row's can.
    accumulators: list[Any] = field(default_factory=list)
    elements_in: int = 0
    late_dropped: int = 0
    observed_errors: array[float] = field(default_factory=lambda: array("d"))
    #: Parallel columns: arrival instants at which the shard frontier
    #: advanced, and the frontier value it advanced to (strictly
    #: increasing), for emit-time reconstruction in the merge stage.
    frontier_arrivals: array[float] = field(default_factory=lambda: array("d"))
    frontier_values: array[float] = field(default_factory=lambda: array("d"))
    #: The shard frontier just before the end-of-stream flush.
    final_frontier: EventTimeStamp = float("-inf")
    current_slack: DurationS = 0.0
    max_buffered: int = 0
    released: int = 0
    #: Trace events of the shard's own recorder (traced runs only).  The
    #: coordinator re-timestamps these into its own wall clock at merge.
    trace_events: list[Any] = field(default_factory=list)
    #: Session-side telemetry counters (``chunks``, ``wire_bytes``)
    #: merged into the coordinator registry under ``shard.<id>.*``.
    metric_deltas: dict[str, float] = field(default_factory=dict)


class ShardRunner:
    """Incremental driver for one shard's pipeline.

    The single definition of what "running a shard" means: chunks are
    fed in arrival order as the coordinator dispatches them and
    :meth:`finish` completes the run's columns, so per-shard semantics
    (sanitizer wrapping, frontier-timeline capture, stats snapshot) do
    not depend on where the runner lives.

    Accumulators are captured only for groups that routing can split
    across shards: every group when ``split_keyed`` (a custom routing
    key), otherwise the ``None``-keyed group alone, from the first chunk
    that carries a ``None`` key.
    """

    def __init__(
        self,
        shard_id: int,
        mode: str,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler: DisorderHandler,
        feedback_horizon: DurationS | None = None,
        track_feedback: bool = True,
        sanitize: str | None = None,
        tracer: Tracer = NULL_TRACER,
        split_keyed: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self._handler = handler
        self._capture = _capture_wrapper(aggregate)
        self._capture.capturing = self._split_keyed = split_keyed
        operator = WindowAggregateOperator(
            assigner,
            cast(AggregateFunction, self._capture),
            handler,
            feedback_horizon=feedback_horizon,
            track_feedback=track_feedback,
            mode=mode,
        )
        self._stats = operator.stats
        self._frontier_log = operator.frontier_log = array("d")
        if tracer.enabled:
            operator.set_tracer(tracer)
        self._driven: Any = (
            guard_operator(operator, sanitize) if sanitize else operator
        )
        self._run = _ShardRun(shard_id)
        self._key_ids: dict[object, int] = {}
        self._finished = False

    def feed(self, elements: Sequence[StreamElement]) -> None:
        """Drive a slice of the shard's stream, in arrival order: one
        ``process_many``, whose results and feedback equal an
        element-by-element run's."""
        capture = self._capture
        if not capture.capturing and any(e.key is None for e in elements):
            capture.capturing = True
            # The rows gathered so far belong to keyed groups.
            self._run.accumulators = [None] * len(self._run.ends)
        self._gather(
            self._driven.process_many(cast("list[StreamElement]", elements))
        )
        self._run.elements_in += len(elements)

    def _gather(self, emitted: list[WindowResult]) -> None:
        """Append handed-back results to the run's columns."""
        if not emitted:
            return
        run = self._run
        key_ids = self._key_ids
        for result in emitted:
            if result.key not in key_ids:
                key_ids[result.key] = len(key_ids)
                run.keys.append(result.key)
        run.key_index.extend([key_ids[result.key] for result in emitted])
        run.starts.extend([result.window.start for result in emitted])
        run.ends.extend([result.window.end for result in emitted])
        run.values.extend([result.value for result in emitted])
        run.counts.extend([result.count for result in emitted])
        if self._capture.capturing:
            split_keyed = self._split_keyed
            run.accumulators.extend(
                [
                    cast(_Partial, result.value).accumulator
                    if split_keyed or result.key is None
                    else None
                    for result in emitted
                ]
            )

    def finish(self) -> _ShardRun:
        """Flush the shard operator and complete the run's columns."""
        if self._finished:
            raise ConfigurationError(
                f"shard {self.shard_id} was already finished"
            )
        self._finished = True
        run = self._run
        log = self._frontier_log
        run.frontier_arrivals = log[0::2]
        run.frontier_values = log[1::2]
        if log:
            run.final_frontier = log[-1]
        self._gather(self._driven.finish())
        handler = self._handler
        run.late_dropped = self._stats.late_dropped
        run.observed_errors = array("d", self._stats.observed_errors)
        run.current_slack = handler.current_slack
        run.max_buffered = handler.max_buffered_count()
        run.released = handler.released_count()
        return run


class ShardSession:
    """The shards one process carries during one sharded run.

    The in-process executor owns one session holding every shard; each
    process-pool worker owns one holding its subset.  Runners (and, in
    traced runs, a recorder per shard) are built lazily at a shard's
    first chunk, so a shard that never receives an element costs
    nothing and reports nothing.
    """

    __slots__ = ("spec", "runners", "tracers", "metric_deltas")

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.runners: dict[int, ShardRunner] = {}
        self.tracers: dict[int, TraceRecorder] = {}
        self.metric_deltas: dict[int, dict[str, float]] = {}

    def feed(
        self, shard_id: int, elements: Sequence[StreamElement], n_bytes: int = 0
    ) -> None:
        """Drive one chunk (``n_bytes`` on the wire) through its shard."""
        runner = self.runners.get(shard_id)
        if runner is None:
            spec = self.spec
            tracer: Tracer = NULL_TRACER
            if spec.trace_enabled:
                tracer = self.tracers[shard_id] = TraceRecorder(
                    detail=spec.trace_detail
                )
            runner = self.runners[shard_id] = ShardRunner(
                shard_id,
                spec.mode,
                spec.assigner,
                spec.aggregate,
                spec.handler_factory(),
                feedback_horizon=spec.feedback_horizon,
                track_feedback=spec.track_feedback,
                sanitize=spec.sanitize,
                tracer=tracer,
                split_keyed=spec.split_keyed,
            )
            self.metric_deltas[shard_id] = {"chunks": 0, "wire_bytes": 0}
        runner.feed(elements)
        deltas = self.metric_deltas[shard_id]
        deltas["chunks"] += 1
        deltas["wire_bytes"] += n_bytes

    def finish(self) -> Iterator[_ShardRun]:
        """Finish every shard that saw a chunk; yield runs by shard id."""
        for shard_id in sorted(self.runners):
            run = self.runners[shard_id].finish()
            tracer = self.tracers.get(shard_id)
            if tracer is not None:
                run.trace_events = list(tracer.events)
            run.metric_deltas = self.metric_deltas[shard_id]
            yield run


class ShardExecutor:
    """The executor seam, and its in-process reference implementation.

    The coordinator calls ``begin(spec)`` once, before its first
    ``dispatch``; ``dispatch(shard_id, elements)`` per routed chunk, in
    arrival order per shard, returning the chunk's wire size in bytes;
    and ``collect()`` once at stream end, returning one :class:`_ShardRun`
    per dispatched shard, by shard id.  A shard failure may surface from
    ``dispatch`` or from ``collect``.  ``chunk_size`` is how many routed
    elements the coordinator gathers per shard before dispatching, and
    ``validate`` lets an executor reject query parts it cannot carry
    when the operator is built.

    This base class runs every shard in the coordinator's own process on
    one :class:`ShardSession` — nothing crosses a boundary, so nothing
    needs to pickle and ``wire_bytes`` reads 0.
    """

    chunk_size = DEFAULT_CHUNK_SIZE
    _session: ShardSession | None = None

    def validate(
        self,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler: DisorderHandler,
    ) -> None:
        """Accept any query parts: in-process execution pickles nothing."""

    def _active_session(self) -> ShardSession:
        if self._session is None:
            raise ConfigurationError("no shard session: begin(spec) was not called")
        return self._session

    def begin(self, spec: ShardSpec) -> None:
        """Start a session for one sharded run."""
        self._session = ShardSession(spec)

    def dispatch(self, shard_id: int, elements: Sequence[StreamElement]) -> int:
        """Drive one chunk through its shard, in line; 0 bytes on the wire."""
        self._active_session().feed(shard_id, elements)
        return 0

    def collect(self) -> list[_ShardRun]:
        """Finish every dispatched shard and end the session."""
        session = self._active_session()
        self._session = None
        return list(session.finish())

    def describe(self) -> str:
        """Label the execution strategy for reports."""
        return "serial"


# --------------------------------------------------------------------- #
# the handler facade the pipeline instrumentation sees


class ShardedHandlerView:
    """Aggregated handler facade over all per-shard disorder handlers.

    The pipeline (and the CLI report) read slack, frontier and buffer
    occupancy from ``operator.handler``; with one handler per shard there
    is no single object to point at, so this view presents the combined
    picture: the minimum frontier (the merge gate), the maximum slack,
    summed buffer counts.  Shard state is only read at ``collect``, so
    during the run the view counts everything routed as "buffered";
    afterwards it reports the joined per-shard totals.
    """

    def __init__(self, n_shards: int, prototype: DisorderHandler) -> None:
        self._n_shards = n_shards
        self._prototype = prototype
        self._routed = 0
        self._finished = False
        self._frontier: EventTimeStamp = float("-inf")
        self._slack: DurationS = prototype.current_slack
        self._max_buffered = 0
        self._released = 0
        self.target = getattr(prototype, "target", None)

    # -- coordinator bookkeeping ------------------------------------- #

    def _note_routed(self, count: int) -> None:
        self._routed += count

    def _finalize(self, runs: Sequence[_ShardRun]) -> None:
        self._finished = True
        if runs:
            self._frontier = min(run.final_frontier for run in runs)
            self._slack = max(run.current_slack for run in runs)
            self._max_buffered = sum(run.max_buffered for run in runs)
            self._released = sum(run.released for run in runs)

    # -- the handler surface the pipeline and CLI read ---------------- #

    @property
    def frontier(self) -> EventTimeStamp:
        """Minimum final frontier across non-empty shards (merge gate)."""
        return self._frontier

    @property
    def current_slack(self) -> DurationS:
        """Largest slack any shard handler settled on."""
        return self._slack

    def buffered_count(self) -> int:
        """Elements routed whose shard runs are not yet joined (0 after finish)."""
        return 0 if self._finished else self._routed

    def max_buffered_count(self) -> int:
        """Summed per-shard buffer high-water marks."""
        return self._max_buffered if self._finished else self._routed

    def released_count(self) -> int:
        """Total elements the shard handlers released downstream."""
        return self._released

    def next_adaptation_offset(
        self, elements: list[StreamElement], start: int, stop: int
    ) -> int | None:
        """No global adaptation boundaries: shards adapt internally."""
        return None

    def observe_error(self, error: float) -> None:
        """Quality feedback is consumed per shard; nothing to do here."""

    def describe(self) -> str:
        """Label the sharded configuration, e.g. ``sharded(4)xK=1s``."""
        return f"sharded({self._n_shards})x{self._prototype.describe()}"


# --------------------------------------------------------------------- #
# the sharded operator


class ShardedWindowOperator(Operator):
    """Keyed sharded pipeline runner with a deterministic merge stage.

    Args:
        n_shards: Number of shards (1..``MAX_SHARDS``).  One shard is a
            valid configuration and produces results bit-identical to the
            unsharded operator (property-tested), which is what makes the
            merge stage testable in isolation.
        assigner: Window assigner shared by every shard.
        aggregate: The user's aggregate.  Shards fold into a capture
            wrapper so the merge stage can combine per-shard accumulators
            with :meth:`AggregateFunction.merge`.
        handler_factory: Zero-argument callable producing a **fresh**
            disorder handler per shard.  Handlers are single-threaded
            state machines; sharing one instance across shards is a
            configuration error the query builder rejects.
        mode: Per-shard execution mode (``"naive"``/``"tree"``).
        key_fn: Routing key function.  Defaults to the element key;
            elements whose routing key is ``None`` are distributed
            round-robin (deterministic in arrival order).
        executor: Shard execution strategy; defaults to the in-process
            :class:`ShardExecutor`.
        feedback_horizon: Passed through to every shard operator.
        track_feedback: Passed through to every shard operator.

    The operator is two-phase: ``process``/``process_many`` route and
    dispatch full chunks to the executor (so a shard failure may surface
    there), and ``finish`` dispatches the remainders, collects every
    shard run, merges, and emits everything in canonical order.
    Elements offered after ``finish`` are counted in
    ``stats.late_dropped`` and go nowhere.
    """

    def __init__(
        self,
        n_shards: int,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler_factory: Callable[[], DisorderHandler],
        mode: str = "naive",
        key_fn: Callable[[StreamElement], object] | None = None,
        executor: ShardExecutor | None = None,
        feedback_horizon: DurationS | None = None,
        track_feedback: bool = True,
    ) -> None:
        if not isinstance(n_shards, int) or isinstance(n_shards, bool):
            raise ConfigurationError(
                f"n_shards must be an int, got {n_shards!r}"
            )
        if not 1 <= n_shards <= MAX_SHARDS:
            raise ConfigurationError(
                f"n_shards must be in 1..{MAX_SHARDS}, got {n_shards}"
            )
        self._n_shards = n_shards
        self._assigner = assigner
        self._aggregate = aggregate
        self._handler_factory = handler_factory
        self._mode = mode
        self._key_fn = key_fn
        self._executor = executor if executor is not None else ShardExecutor()
        self._feedback_horizon = feedback_horizon
        self._track_feedback = track_feedback
        # Validate the mode/assigner/aggregate combination eagerly — the
        # prototype also supplies the handler facade's label and target.
        prototype_handler = handler_factory()
        WindowAggregateOperator(
            assigner,
            cast(AggregateFunction, _capture_wrapper(aggregate)),
            prototype_handler,
            feedback_horizon=feedback_horizon,
            track_feedback=track_feedback,
            mode=mode,
        )
        self.handler = ShardedHandlerView(n_shards, prototype_handler)
        self.stats = _MergedStats()
        self.tracer: Tracer = NULL_TRACER
        self._pending: list[list[StreamElement]] = [[] for _ in range(n_shards)]
        self._round_robin = 0
        self._last_arrival: ArrivalTimeStamp = float("-inf")
        self._sanitize: str | None = None
        self._registry: MetricsRegistry | None = None
        self._finished = False
        self._chunk_size = self._executor.chunk_size
        self._chunks_sent = [0] * n_shards
        self._elements_sent = [0] * n_shards
        # Whatever the executor cannot carry (a process pool pickles every
        # query part) is rejected here at build time with a clear error,
        # not at first dispatch with an opaque traceback mid-run.
        self._executor.validate(assigner, aggregate, prototype_handler)

    # -- pipeline hooks ------------------------------------------------ #

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer for the coordinator-side shard events.

        The recorder is a single-thread object, so shards never share
        it: each traces into a recorder of its own (see
        :class:`ShardSession`) whose events the coordinator absorbs at
        ``collect``.
        """
        self.tracer = tracer

    def configure_sanitizer(self, kind: str) -> None:
        """Arrange for each shard operator to run under a sanitizer.

        Called by :func:`repro.analysis.guard_operator` (which has
        checked ``kind``) instead of wrapping the coordinator: sanitizers
        assume the scalar operator protocol (one element in, results
        out), which the two-phase coordinator does not follow, while each
        shard operator follows it exactly.
        """
        self._sanitize = kind

    def set_registry(self, registry: MetricsRegistry) -> None:
        """Publish per-shard metrics into ``registry`` at finish."""
        self._registry = registry

    # -- routing ------------------------------------------------------- #

    def _route(self, element: StreamElement) -> int:
        routing_key = (
            self._key_fn(element) if self._key_fn is not None else element.key
        )
        if routing_key is None:
            shard = self._round_robin
            self._round_robin = (shard + 1) % self._n_shards
            return shard
        return stable_shard(routing_key, self._n_shards)

    def process(self, element: StreamElement) -> list[WindowResult]:
        """Route one element to its shard; results all come from finish."""
        self.stats.elements_in += 1
        if self._finished:
            self.stats.late_dropped += 1
            return []
        shard = self._route(element)
        pending = self._pending[shard]
        pending.append(element)
        arrival = element.arrival_time
        if arrival is not None and arrival > self._last_arrival:
            self._last_arrival = arrival
        self.handler._note_routed(1)
        if len(pending) >= self._chunk_size:
            self._dispatch_shard(shard)
        return []

    def process_many(self, elements: list[StreamElement]) -> list[WindowResult]:
        """Route a chunk; equivalent to ``process`` element by element."""
        self.stats.elements_in += len(elements)
        if self._finished:
            self.stats.late_dropped += len(elements)
            return []
        route = self._route
        pending = self._pending
        for element in elements:
            pending[route(element)].append(element)
            arrival = element.arrival_time
            if arrival is not None and arrival > self._last_arrival:
                self._last_arrival = arrival
        self.handler._note_routed(len(elements))
        for shard in range(self._n_shards):
            if len(pending[shard]) >= self._chunk_size:
                self._dispatch_shard(shard)
        return []

    # -- dispatch ------------------------------------------------------- #

    def _dispatch_shard(self, shard_id: int) -> None:
        """Hand one shard's pending elements to the executor as a chunk."""
        elements = self._pending[shard_id]
        if not elements:
            return
        self._pending[shard_id] = []
        if not any(self._chunks_sent):
            # Begin at the first dispatch, not at construction: the
            # pipeline attaches tracer and sanitizer after building us.
            self._executor.begin(
                ShardSpec(
                    n_shards=self._n_shards,
                    mode=self._mode,
                    assigner=self._assigner,
                    aggregate=self._aggregate,
                    handler_factory=self._handler_factory,
                    feedback_horizon=self._feedback_horizon,
                    track_feedback=self._track_feedback,
                    sanitize=self._sanitize,
                    trace_enabled=self.tracer.enabled,
                    trace_detail=self.tracer.detail,
                    split_keyed=self._key_fn is not None,
                )
            )
        n_bytes = self._executor.dispatch(shard_id, elements)
        chunk = self._chunks_sent[shard_id]
        self._chunks_sent[shard_id] = chunk + 1
        self._elements_sent[shard_id] += len(elements)
        if self.tracer.enabled:
            self.tracer.shard_dispatch(
                self._last_arrival, shard_id, chunk, len(elements), n_bytes
            )

    # -- merge --------------------------------------------------------- #

    def _merge(self, runs: list[_ShardRun]) -> list[WindowResult]:
        """Combine the runs' columns at the minimum frontier.

        One walk over the distinct window ends in ascending order — the
        canonical order, see the module docstring — recording a
        ``shard.merge`` per result when traced.  A row without an
        accumulator is a whole group (routing kept its key in one shard);
        rows with one are regrouped by ``(key, window)`` and folded in
        shard order.
        """
        min_frontier = min(run.final_frontier for run in runs)
        aggregate = self._aggregate
        tracer = self.tracer
        traced = tracer.enabled

        # Concatenated, a row's position is its first-seen rank; a run's
        # rows are end-sorted per key only, hence the (stable) sort.  The
        # groups of equal ends are cut where the sorted column steps.
        ends = np.concatenate([run.ends for run in runs])
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        bounds = np.flatnonzero(np.diff(ends, prepend=-np.inf, append=np.inf)).tolist()
        group_ends: list[EventTimeStamp] = ends[bounds[:-1]].tolist()
        starts = np.concatenate([run.starts for run in runs])[order]
        values = np.concatenate([run.values for run in runs])[order]
        counts = np.concatenate([run.counts for run in runs])[order]
        keys = [key for run in runs for key in run.keys]
        key_reprs = [repr(key) for key in keys]
        first_key_id = np.cumsum([0] + [len(run.keys) for run in runs])
        key_ids = np.concatenate(
            [np.asarray(run.key_index) + first for run, first in zip(runs, first_key_id)]
        )[order]
        accumulators: list[Any] = []  # stays empty when no run captured any
        if any(run.accumulators for run in runs):
            by_rank = [
                accumulator
                for run in runs
                for accumulator in run.accumulators or [None] * len(run.ends)
            ]
            accumulators = [by_rank[row] for row in order.tolist()]
        del ends, order  # the walk reads neither: freed before the results grow

        results: list[WindowResult] = []
        for end, low, high in zip(group_ends, bounds, bounds[1:]):
            flushed = end > min_frontier
            # Closed at the arrival at which the last shard's frontier reached it.
            emit_time = self._last_arrival if flushed else max(
                run.frontier_arrivals[bisect_left(run.frontier_values, end)] for run in runs
            )
            latency = emit_time - end
            # One entry per merged group, in first-seen order: [start,
            # repr(key), key, value, count, accumulator, shards]; those
            # that may span shards are also in ``split``, by (key, start).
            entries: list[Any] = []
            split: dict[tuple[object, float], list[Any]] = {}
            for key_id, start, value, count, accumulator in zip(
                key_ids[low:high].tolist(), starts[low:high].tolist(),
                values[low:high].tolist(), counts[low:high].tolist(),
                accumulators[low:high] or repeat(None),
            ):
                key = keys[key_id]
                if accumulator is None:
                    entries.append((start, key_reprs[key_id], key, value, count, None, 1))
                elif (group := split.get((key, start))) is None:
                    group = split[(key, start)] = [
                        start, key_reprs[key_id], key, value, count, accumulator, 1
                    ]
                    entries.append(group)
                else:
                    group[4] += count
                    group[5] = aggregate.merge(group[5], accumulator)
                    group[6] += 1
            entries.sort(key=itemgetter(0, 1))  # stable: ties stay in rank order
            window_start = float("-inf")
            for start, _, key, value, count, accumulator, n_shards in entries:
                if start > window_start:
                    window_start = start
                    window = Window(start, end)
                if n_shards > 1:
                    value = aggregate.result(accumulator)
                results.append(
                    WindowResult(key, window, value, count, emit_time, latency, 0, flushed)
                )
                if traced:
                    tracer.shard_merge(
                        emit_time, key, start, end, n_shards, float(value), count
                    )
        return results

    def finish(self) -> list[WindowResult]:
        """Collect all shards, merge, and emit in canonical order."""
        if self._finished:
            return []
        self._finished = True
        tracer = self.tracer
        for shard_id in range(self._n_shards):
            self._dispatch_shard(shard_id)
        if not any(self._chunks_sent):
            self.handler._finalize(())
            return []
        if tracer.enabled:
            for shard_id, count in enumerate(self._elements_sent):
                if count:
                    tracer.shard_ingest(self._last_arrival, shard_id, count)
        runs = self._executor.collect()
        if tracer.enabled:
            for run in runs:
                tracer.absorb(run.trace_events)
                tracer.shard_collect(
                    self._last_arrival,
                    run.shard_id,
                    len(run.ends),
                    len(run.trace_events),
                    self._chunks_sent[run.shard_id],
                )
        merged = self._merge(runs)
        self.handler._finalize(runs)
        stats = self.stats
        stats.results_out = len(merged)
        for run in runs:
            stats.late_dropped += run.late_dropped
            stats.observed_errors.extend(run.observed_errors)
        if self._registry is not None:
            registry = self._registry
            for run in runs:
                prefix = f"shard.{run.shard_id}"
                registry.counter(f"{prefix}.elements_in").set(run.elements_in)
                registry.counter(f"{prefix}.results_out").set(len(run.ends))
                registry.counter(f"{prefix}.late_dropped").set(run.late_dropped)
                registry.gauge(f"{prefix}.max_buffered").set(run.max_buffered)
                registry.gauge(f"{prefix}.final_frontier").set(run.final_frontier)
                for name, value in run.metric_deltas.items():
                    registry.counter(f"{prefix}.{name}").set(value)
        return merged


@dataclass(slots=True)
class _MergedStats:
    """Coordinator-side stats mirroring ``OperatorStats``' pipeline fields."""

    elements_in: int = 0
    results_out: int = 0
    late_dropped: int = 0
    observed_errors: list[float] = field(default_factory=list)
