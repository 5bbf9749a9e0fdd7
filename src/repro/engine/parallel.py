"""Sharded parallel execution: keyed partitioning with a deterministic merge.

:class:`ShardedWindowOperator` partitions an arrival-ordered stream across
``n`` worker shards by element key.  Each shard runs a completely
independent operator — its own execution mode (naive/tree), its own
disorder handler built fresh from a factory (so adaptive AQ-K state never
crosses shards), and its own per-shard event-time frontier.  A
:class:`ShardExecutor` feeds every shard its routed chunks while the
stream arrives; when the stream ends it finishes every non-empty shard
and a deterministic merge stage interleaves the per-shard window results.

Semantics (the *shard contract*, documented in ``docs/SCALING.md``):

* Every element is routed by :func:`stable_shard` of its key, ``None``
  included, so a group ``(key, window)`` lives in exactly one shard and
  its merged value is the shard's value, bit for bit.  An unkeyed stream
  runs in one shard and emits what the unsharded operator emits.
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
  the merge produces it by one sort of the rows and one walk over the
  distinct ends.

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
from numbers import Number
from typing import Any, Callable, Iterator, Sequence, cast

import numpy as np

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
#: computing long before stream end.  ``ProcessShardExecutor(chunk_size=)``
#: is the one way to pick another.
DEFAULT_CHUNK_SIZE = 512


def stable_shard(routing_key: object, n_shards: int) -> int:
    """Deterministic shard index for a routing key.

    Python's builtin ``hash`` is salted per process, which would re-route
    every key on every run; CRC-32 of the key's ``repr`` is stable across
    processes and Python versions, so shard assignment is part of the
    reproducible configuration rather than an accident of the interpreter.
    Keys that compare equal share a shard, as they share a group: numbers
    of any type (numpy scalars, ``Decimal``, ``Fraction``, ``complex``
    too) and tuples of them hash one spelling per value.
    """
    if type(routing_key) is not str and type(routing_key) is not int:
        routing_key = _canonical_key(routing_key)
    return zlib.crc32(repr(routing_key).encode("utf-8")) % n_shards


def _canonical_key(key: Any) -> Any:
    """The one spelling :func:`stable_shard` hashes for ``key``'s ``==`` class.

    A number with an integral value is spelled as an ``int``, any other
    real one as a ``float`` (a complex with a zero imaginary part is its
    real part); infinities and NaNs keep whatever spelling ``float``
    gives them, or their own where it gives none.
    """
    if isinstance(key, tuple):
        return tuple(map(_canonical_key, key))
    if isinstance(key, np.generic):
        key = key.item()
    if not isinstance(key, Number) or getattr(key, "imag", 0):
        return key  # not a number, or a complex no real number equals
    key = key.real
    try:
        whole = int(key)
    except (ArithmeticError, ValueError):  # infinite or NaN
        try:
            return float(key)
        except ValueError:  # a signalling NaN, which no group can hold
            return key
    return whole if whole == key else float(key)


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
    track_feedback: bool | None
    sanitize: bool
    trace_enabled: bool
    trace_detail: bool


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


class ShardRunner:
    """Incremental driver for one shard's pipeline.

    The single definition of what "running a shard" means: chunks are
    fed in arrival order as the coordinator dispatches them and
    :meth:`finish` completes the run's columns, so per-shard semantics
    (sanitizer wrapping, frontier-timeline capture, stats snapshot) do
    not depend on where the runner lives.
    """

    def __init__(
        self,
        shard_id: int,
        mode: str,
        assigner: WindowAssigner,
        aggregate: AggregateFunction,
        handler: DisorderHandler,
        feedback_horizon: DurationS | None = None,
        track_feedback: bool | None = None,
        sanitize: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self._handler = handler
        operator = WindowAggregateOperator(
            assigner,
            aggregate,
            handler,
            feedback_horizon=feedback_horizon,
            track_feedback=track_feedback,
            mode=mode,
        )
        self._stats = operator.stats
        self._frontier_log = operator.frontier_log = array("d")
        self._driven: Any = operator
        if sanitize:
            from repro.analysis.sanitizer import sanitize_operator

            self._driven = sanitize_operator(operator)
        self._run = _ShardRun(shard_id)
        self._key_ids: dict[object, int] = {}
        self._finished = False

    def set_tracer(self, tracer: Tracer) -> None:
        """Trace the shard's operator, its store and its handler."""
        self._driven.set_tracer(tracer)

    def feed(self, elements: Sequence[StreamElement]) -> None:
        """Drive a slice of the shard's stream, in arrival order: one
        ``process_many``, whose results and feedback equal an
        element-by-element run's."""
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
    nothing and reports nothing.  A recorder is an observer, not state:
    a restored session loads every recorder detached, and a shard's
    trace resumes in a fresh recorder at its first chunk after the
    restore.
    """

    __slots__ = ("spec", "runners", "tracers")

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.runners: dict[int, ShardRunner] = {}
        self.tracers: dict[int, Tracer] = {}

    def feed(self, shard_id: int, elements: Sequence[StreamElement]) -> None:
        """Drive one chunk through its shard."""
        spec = self.spec
        runner = self.runners.get(shard_id)
        if runner is None:
            runner = self.runners[shard_id] = ShardRunner(
                shard_id,
                spec.mode,
                spec.assigner,
                spec.aggregate,
                spec.handler_factory(),
                feedback_horizon=spec.feedback_horizon,
                track_feedback=spec.track_feedback,
                sanitize=spec.sanitize,
            )
        if spec.trace_enabled and not isinstance(
            self.tracers.get(shard_id), TraceRecorder
        ):
            tracer = self.tracers[shard_id] = TraceRecorder(detail=spec.trace_detail)
            runner.set_tracer(tracer)
        runner.feed(elements)

    def finish(self) -> Iterator[_ShardRun]:
        """Finish every shard that saw a chunk; yield runs by shard id."""
        for shard_id in sorted(self.runners):
            run = self.runners[shard_id].finish()
            tracer = self.tracers.get(shard_id)
            if isinstance(tracer, TraceRecorder):  # not detached by a restore
                run.trace_events = list(tracer.events)
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
        aggregate: The user's aggregate, folded by every shard.
        handler_factory: Zero-argument callable producing a **fresh**
            disorder handler per shard.  Handlers are single-threaded
            state machines; sharing one instance across shards is a
            configuration error the query builder rejects.
        mode: Per-shard execution mode (``"naive"``/``"tree"``).
        executor: Shard execution strategy; defaults to the in-process
            :class:`ShardExecutor`.
        feedback_horizon: Passed through to every shard operator.
        track_feedback: Passed through to every shard operator.

    The operator is two-phase: ``process``/``process_many`` route every
    element to the :func:`stable_shard` of its key, ``None`` included,
    and dispatch full chunks to the executor (so a shard failure may
    surface there), and ``finish`` dispatches the remainders, collects
    every shard run, merges, and emits everything in canonical order.
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
        executor: ShardExecutor | None = None,
        feedback_horizon: DurationS | None = None,
        track_feedback: bool | None = None,
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
        self._executor = executor if executor is not None else ShardExecutor()
        self._feedback_horizon = feedback_horizon
        self._track_feedback = track_feedback
        # Validate the mode/assigner/aggregate combination eagerly — the
        # prototype also supplies the handler facade's label and target.
        prototype_handler = handler_factory()
        WindowAggregateOperator(
            assigner,
            aggregate,
            prototype_handler,
            feedback_horizon=feedback_horizon,
            track_feedback=track_feedback,
            mode=mode,
        )
        self.handler = ShardedHandlerView(n_shards, prototype_handler)
        self.stats = _MergedStats()
        self.tracer: Tracer = NULL_TRACER
        self._pending: list[list[StreamElement]] = [[] for _ in range(n_shards)]
        self._last_arrival: ArrivalTimeStamp = float("-inf")
        self._sanitize = False
        self._registry: MetricsRegistry | None = None
        self._finished = False
        self._chunk_size = self._executor.chunk_size
        self._chunks_sent = [0] * n_shards
        self._bytes_sent = [0] * n_shards
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

    def configure_sanitizer(self) -> None:
        """Arrange for each shard operator to run under StreamSan.

        Called by :func:`repro.analysis.sanitizer.sanitize_operator`
        instead of wrapping the coordinator: the sanitizer assumes the
        scalar operator protocol (one element in, results out), which the
        two-phase coordinator does not follow, while each shard operator
        follows it exactly.
        """
        self._sanitize = True

    def set_registry(self, registry: MetricsRegistry) -> None:
        """Publish per-shard metrics into ``registry`` at finish."""
        self._registry = registry

    # -- routing ------------------------------------------------------- #

    def process(self, element: StreamElement) -> list[WindowResult]:
        """Route one element to its shard; results all come from finish."""
        self.stats.elements_in += 1
        if self._finished:
            self.stats.late_dropped += 1
            return []
        shard = stable_shard(element.key, self._n_shards)
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
        n_shards = self._n_shards
        pending = self._pending
        for element in elements:
            pending[stable_shard(element.key, n_shards)].append(element)
            arrival = element.arrival_time
            if arrival is not None and arrival > self._last_arrival:
                self._last_arrival = arrival
        self.handler._note_routed(len(elements))
        for shard in range(n_shards):
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
                )
            )
        n_bytes = self._executor.dispatch(shard_id, elements)
        chunk = self._chunks_sent[shard_id]
        self._chunks_sent[shard_id] = chunk + 1
        self._bytes_sent[shard_id] += n_bytes
        if self.tracer.enabled:
            self.tracer.emit(
                "shard.dispatch", self._last_arrival, shard=shard_id, chunk=chunk,
                count=len(elements), bytes=n_bytes,
            )

    # -- merge --------------------------------------------------------- #

    def _merge(self, rows: _MergeRows) -> list[WindowResult]:
        """Stamp the sorted rows at the minimum frontier, in their order.

        One walk over the distinct window ends: a group's emit time and
        latency are computed once, and its rows share one ``Window`` per
        start.  The walk pops ``rows.blocks``, dropping each block once
        its results are built.  Records a ``shard.merge`` per result when
        traced.
        """
        tracer = self.tracer
        traced = tracer.enabled
        keys = rows.keys
        timelines = rows.timelines
        min_frontier = rows.min_frontier
        blocks = rows.blocks
        results: list[WindowResult] = []
        while blocks:
            group_ends, bounds, key_ids, starts, values, counts = blocks.pop()
            for end, low, high in zip(group_ends, bounds, bounds[1:]):
                flushed = end > min_frontier
                # Closed at the arrival at which the last shard's frontier reached it.
                emit_time = self._last_arrival if flushed else max(
                    arrivals[bisect_left(frontier, end)] for frontier, arrivals in timelines
                )
                latency = emit_time - end
                window_start = float("-inf")
                for key_id, start, value, count in zip(
                    key_ids[low:high].tolist(), starts[low:high].tolist(),
                    values[low:high].tolist(), counts[low:high].tolist(),
                ):
                    if start > window_start:
                        window_start = start
                        window = Window(start, end)
                    key = keys[key_id]
                    results.append(
                        WindowResult(key, window, value, count, emit_time, latency, 0, flushed)
                    )
                    if traced:
                        tracer.emit(
                            "shard.merge", emit_time, key=key, start=start, end=end,
                            value=value, count=count,
                        )
        return results

    def finish(self) -> list[WindowResult]:
        """Collect all shards, merge, and emit in canonical order."""
        if self._finished:
            return []
        self._finished = True
        for shard_id in range(self._n_shards):
            self._dispatch_shard(shard_id)
        if not any(self._chunks_sent):
            self.handler._finalize(())
            return []
        merged = self._merge(self._collect())
        self.stats.results_out = len(merged)
        return merged

    def _collect(self) -> _MergeRows:
        """Read all the coordinator needs from the shard runs, rows included.

        The runs go when this returns, so the merge holds each row once,
        in its own sorted columns, while it builds the results.  The runs
        are only read: the executor that returned them may keep them.
        """
        runs = self._executor.collect()
        tracer = self.tracer
        if tracer.enabled:
            for run in runs:
                tracer.absorb(run.trace_events)
                tracer.emit(
                    "shard.collect", self._last_arrival, shard=run.shard_id,
                    results=len(run.ends), events=len(run.trace_events),
                    chunks=self._chunks_sent[run.shard_id],
                )
        self.handler._finalize(runs)
        stats = self.stats
        for run in runs:
            stats.late_dropped += run.late_dropped
            stats.observed_errors.extend(run.observed_errors)
        if self._registry is not None:
            registry = self._registry
            for run in runs:
                shard_id = run.shard_id
                prefix = f"shard.{shard_id}"
                registry.counter(f"{prefix}.elements_in").set(run.elements_in)
                registry.counter(f"{prefix}.results_out").set(len(run.ends))
                registry.counter(f"{prefix}.late_dropped").set(run.late_dropped)
                registry.gauge(f"{prefix}.max_buffered").set(run.max_buffered)
                registry.gauge(f"{prefix}.final_frontier").set(run.final_frontier)
                registry.counter(f"{prefix}.chunks").set(self._chunks_sent[shard_id])
                registry.counter(f"{prefix}.wire_bytes").set(self._bytes_sent[shard_id])
        return _MergeRows.of(runs)


#: Rows per block of the merge's sorted columns.  A block holds whole
#: groups of equal ends (so a larger group is one block), and the merge
#: drops each block once its results are built: the columns shrink while
#: the results grow.
MERGE_BLOCK_ROWS = 1024

#: One block of sorted rows: its distinct ends, the row bounds of each
#: one's group within the block (one more bound than ends), then the
#: ``key_ids``, ``starts``, ``values`` and ``counts`` columns.
_Block = tuple[
    list[EventTimeStamp], list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


@dataclass(slots=True)
class _MergeRows:
    """Every shard run's rows in canonical order, one copy of each.

    Built by :meth:`of` from concatenations of the runs' columns, and
    holding no reference to a run: with the frontier timelines it is all
    the merge reads.
    """

    keys: list[object]
    #: The sorted rows in blocks, the last block first (the merge pops them).
    blocks: list[_Block]
    #: ``(frontier_values, frontier_arrivals)`` per run.
    timelines: list[tuple[array[float], array[float]]]
    min_frontier: EventTimeStamp

    @classmethod
    def of(cls, runs: Sequence[_ShardRun]) -> _MergeRows:
        """Concatenate the runs' columns once, then sort from those copies.

        Concatenated, a row's position is its first-seen rank; the sort
        by (end, start, repr(key)) is stable, so ties stay in rank order.
        A key's place among the sorted reprs stands in for its repr.
        """
        keys = [key for run in runs for key in run.keys]
        first_key_id = np.cumsum([0] + [len(run.keys) for run in runs])
        key_ids = np.concatenate(
            [np.asarray(run.key_index) + first for run, first in zip(runs, first_key_id)]
        )
        starts = np.concatenate([run.starts for run in runs])
        ends = np.concatenate([run.ends for run in runs])
        values = np.concatenate([run.values for run in runs])
        counts = np.concatenate([run.counts for run in runs])
        reprs = [repr(key) for key in keys]
        places = {text: place for place, text in enumerate(sorted(set(reprs)))}
        key_places = np.array([places[text] for text in reprs], dtype=np.int64)
        order = np.lexsort((key_places[key_ids], starts, ends))
        del reprs, places, key_places
        # The groups of equal ends are cut where the sorted column steps.
        sorted_ends = ends[order]
        bounds = np.flatnonzero(np.diff(sorted_ends, prepend=-np.inf, append=np.inf)).tolist()
        group_ends: list[EventTimeStamp] = sorted_ends[bounds[:-1]].tolist()
        del ends, sorted_ends
        blocks: list[_Block] = []
        first = 0
        while first < len(group_ends):
            # The first group bound at least a block's rows past this one's.
            last = min(
                bisect_left(bounds, bounds[first] + MERGE_BLOCK_ROWS, first + 1),
                len(group_ends),
            )
            low = bounds[first]
            taken = order[low : bounds[last]]
            blocks.append((
                group_ends[first:last], [bound - low for bound in bounds[first : last + 1]],
                key_ids[taken], starts[taken], values[taken], counts[taken],
            ))
            first = last
        blocks.reverse()
        return cls(
            keys=keys,
            blocks=blocks,
            timelines=[(run.frontier_values, run.frontier_arrivals) for run in runs],
            min_frontier=min(run.final_frontier for run in runs),
        )


@dataclass(slots=True)
class _MergedStats:
    """Coordinator-side stats mirroring ``OperatorStats``' pipeline fields."""

    elements_in: int = 0
    results_out: int = 0
    late_dropped: int = 0
    observed_errors: list[float] = field(default_factory=list)
