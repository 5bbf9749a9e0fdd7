"""Fluent query builder: the primary public API of the library.

Example
-------

>>> import numpy as np
>>> from repro import ContinuousQuery, sliding
>>> from repro.streams import generate_stream, inject_disorder, ExponentialDelay
>>> rng = np.random.default_rng(0)
>>> stream = inject_disorder(
...     generate_stream(duration=60, rate=50, rng=rng), ExponentialDelay(0.5), rng
... )
>>> run = (
...     ContinuousQuery()
...     .from_elements(stream)
...     .window(sliding(10, 2))
...     .aggregate("mean")
...     .with_quality(0.05)
...     .run(assess=True)
... )
>>> run.report.mean_error <= 0.2
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aqk import AQKSlackHandler
from repro.core.quality import QualityReport, assess_quality
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import AggregateFunction, make_aggregate
from repro.engine.handlers import (
    DisorderHandler,
    KSlackHandler,
    MPKSlackHandler,
    NoBufferHandler,
)
from repro.engine.metrics import LatencySummary
from repro.engine.operator import Operator
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import RunOutput, run_pipeline
from repro.engine.watermarks import FixedLagWatermarkHandler
from repro.engine.windows import WindowAssigner
from repro.errors import QueryError
from repro.streams.element import StreamElement


@dataclass
class QueryRun:
    """Outcome of one executed continuous query."""

    output: RunOutput
    report: QualityReport | None
    handler: DisorderHandler
    operator: object  # naive or tree window aggregate operator

    @property
    def results(self):
        return self.output.results

    @property
    def latency(self) -> LatencySummary:
        return self.output.latency_summary()


class ContinuousQuery:
    """Builder for windowed aggregation queries over out-of-order streams.

    Chain ``from_elements`` / ``window`` / ``aggregate`` and exactly one
    disorder-handling clause (``with_quality``, ``with_latency_budget``,
    ``with_slack``, ``with_watermark``, ``with_max_delay_slack``,
    ``without_buffering``, or ``with_handler``), then call :meth:`run`.
    """

    def __init__(self) -> None:
        self._elements: list[StreamElement] | None = None
        self._assigner: WindowAssigner | None = None
        self._aggregate: AggregateFunction | None = None
        self._handler_factory = None
        self._handler_label: str | None = None
        self._mode = "naive"
        self._shards: int | None = None
        self._shard_key = None
        self._handler_is_instance = False
        self._executor_spec = None
        self._chunk_size: int | None = None

    # ------------------------------------------------------------------ #
    # inputs

    def from_elements(self, elements: list[StreamElement]) -> "ContinuousQuery":
        """Use an arrival-ordered stream as the source."""
        self._elements = elements
        return self

    def window(self, assigner: WindowAssigner) -> "ContinuousQuery":
        """Set the window assigner (see ``sliding``/``tumbling``)."""
        self._assigner = assigner
        return self

    def aggregate(self, aggregate: AggregateFunction | str) -> "ContinuousQuery":
        """Set the aggregate: an instance or a name like ``"mean"``/``"p95"``."""
        if isinstance(aggregate, str):
            aggregate = make_aggregate(aggregate)
        self._aggregate = aggregate
        return self

    # ------------------------------------------------------------------ #
    # disorder handling clauses

    def _set_handler(self, label: str, factory) -> "ContinuousQuery":
        if self._handler_factory is not None:
            raise QueryError(
                f"disorder handling already set ({self._handler_label}); "
                f"cannot also set {label}"
            )
        self._handler_factory = factory
        self._handler_label = label
        return self

    def with_quality(self, threshold: float, **aqk_kwargs) -> "ContinuousQuery":
        """Quality-driven adaptive buffering: mean error <= threshold."""

        def factory(query: "ContinuousQuery") -> DisorderHandler:
            return AQKSlackHandler(
                target=QualityTarget(threshold),
                aggregate=query._require_aggregate(),
                window_size=getattr(query._assigner, "size", None),
                **aqk_kwargs,
            )

        return self._set_handler(f"quality<={threshold:g}", factory)

    def with_latency_budget(self, seconds: float, **aqk_kwargs) -> "ContinuousQuery":
        """Latency-bounded adaptive buffering: slack <= budget."""

        def factory(query: "ContinuousQuery") -> DisorderHandler:
            return AQKSlackHandler(
                target=LatencyBudget(seconds),
                aggregate=query._require_aggregate(),
                window_size=getattr(query._assigner, "size", None),
                **aqk_kwargs,
            )

        return self._set_handler(f"latency<={seconds:g}s", factory)

    def with_slack(self, k: float) -> "ContinuousQuery":
        """Fixed K-slack buffering."""
        return self._set_handler(f"K={k:g}s", lambda query: KSlackHandler(k))

    def with_max_delay_slack(self) -> "ContinuousQuery":
        """Conservative adaptive baseline: K tracks the max observed delay."""
        return self._set_handler("mp-k-slack", lambda query: MPKSlackHandler())

    def with_watermark(self, lag: float) -> "ContinuousQuery":
        """Fixed-lag watermarks (Flink-style), advanced on every arrival."""
        return self._set_handler(
            f"watermark(lag={lag:g})",
            lambda query: FixedLagWatermarkHandler(lag),
        )

    def without_buffering(self) -> "ContinuousQuery":
        """Zero-latency baseline: late elements are dropped."""
        return self._set_handler("no-buffer", lambda query: NoBufferHandler())

    def with_handler(self, handler: DisorderHandler) -> "ContinuousQuery":
        """Use an externally constructed handler."""
        self._handler_is_instance = True
        return self._set_handler(handler.describe(), lambda query: handler)

    # ------------------------------------------------------------------ #
    # execution

    def mode(self, mode: str) -> "ContinuousQuery":
        """Choose the execution mode: ``"naive"`` or ``"tree"``.

        ``"tree"`` shares one accumulator per slice (one add per element),
        closes an in-order window with one merge and patches late elements
        through cached dyadic partials in O(log) instead of O(size/slide).
        It requires the slide to divide the window size and a mergeable
        aggregate; both modes produce identical results.  The removed
        ``"sliced"`` raises a ``ConfigurationError`` naming ``"tree"``.
        """
        from repro.engine.aggregate_op import EXECUTION_MODES, unknown_mode_error

        if mode not in EXECUTION_MODES:
            error = unknown_mode_error(mode)
            if mode == "sliced":
                raise error
            raise QueryError(str(error))
        self._mode = mode
        return self

    def shards(self, n: int, key=None) -> "ContinuousQuery":
        """Partition execution across ``n`` keyed shards.

        Each shard runs an independent operator in the configured
        :meth:`mode` with its own disorder handler (built fresh from the
        configured clause), and a deterministic merge stage combines the
        per-shard windows at the minimum frontier across shards — see
        ``docs/SCALING.md`` for the exact semantics contract.

        Args:
            n: Shard count (>= 1).  ``shards(1)`` exercises the full
                sharded path and is bit-identical to unsharded execution.
            key: Optional routing key function ``element -> hashable``.
                Defaults to the element key; elements with routing key
                ``None`` are distributed round-robin.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise QueryError(f"shard count must be an int >= 1, got {n!r}")
        self._shards = n
        self._shard_key = key
        return self

    def executor(self, kind="serial", chunk_size: int | None = None) -> "ContinuousQuery":
        """Choose how shards execute: ``"serial"`` (the default) or ``"process"``.

        ``"serial"`` runs every shard in the calling process.
        ``"process"`` runs shards on a warm pool of worker processes
        (true multicore parallelism, see ``docs/SCALING.md``); it requires
        every query part crossing the process boundary — window assigner,
        aggregate, disorder handler — to be picklable, which is checked at
        build time.  An already-constructed
        :class:`~repro.engine.parallel.ShardExecutor` instance is also
        accepted (e.g. a shared warm pool reused across queries).

        Args:
            kind: Executor name or instance.
            chunk_size: Elements per dispatched chunk; only settable for
                ``"process"`` (defaults to
                :data:`~repro.engine.parallel.DEFAULT_CHUNK_SIZE`).

        Requires :meth:`shards`; checked when the operator is built.
        """
        from repro.engine.parallel import ShardExecutor

        if isinstance(kind, str):
            if kind not in ("serial", "process"):
                raise QueryError(
                    f"unknown executor {kind!r}; expected \"serial\", "
                    '"process" or a ShardExecutor instance'
                )
        elif not isinstance(kind, ShardExecutor):
            raise QueryError(
                f"executor must be a name or a ShardExecutor, got {kind!r}"
            )
        if chunk_size is not None:
            if (
                not isinstance(chunk_size, int)
                or isinstance(chunk_size, bool)
                or chunk_size < 1
            ):
                raise QueryError(
                    f"chunk_size must be a positive int, got {chunk_size!r}"
                )
            if kind != "process":
                raise QueryError(
                    "chunk_size only applies to the \"process\" executor"
                )
        self._executor_spec = kind
        self._chunk_size = chunk_size
        return self

    def _make_executor(self):
        """Materialize the configured shard executor (None = in-process)."""
        spec = self._executor_spec
        if spec == "process":
            from repro.engine.process_pool import ProcessShardExecutor

            if self._chunk_size is not None:
                return ProcessShardExecutor(chunk_size=self._chunk_size)
            return ProcessShardExecutor()
        return None if spec == "serial" else spec

    def _require_aggregate(self) -> AggregateFunction:
        if self._aggregate is None:
            raise QueryError("query has no aggregate; call .aggregate(...)")
        return self._aggregate

    def build_operator(self) -> Operator:
        """Materialize the operator without running (for custom drivers)."""
        if self._assigner is None:
            raise QueryError("query has no window; call .window(...)")
        aggregate = self._require_aggregate()
        if self._handler_factory is None:
            raise QueryError(
                "query has no disorder handling; call .with_quality(...), "
                ".with_slack(...), .without_buffering(), ..."
            )
        if self._shards is not None:
            if self._handler_is_instance and self._shards > 1:
                raise QueryError(
                    "with_handler supplies a single handler instance, but "
                    "sharded execution needs a fresh handler per shard; "
                    "use with_slack/with_quality/... instead"
                )
            from repro.engine.parallel import ShardedWindowOperator

            handler_factory = self._handler_factory
            return ShardedWindowOperator(
                self._shards,
                self._assigner,
                aggregate,
                lambda: handler_factory(self),
                mode=self._mode,
                key_fn=self._shard_key,
                executor=self._make_executor(),
            )
        if self._executor_spec is not None:
            raise QueryError(
                "executor(...) requires sharded execution; call .shards(n) first"
            )
        handler = self._handler_factory(self)
        from repro.engine.aggregate_op import WindowAggregateOperator

        return WindowAggregateOperator(
            self._assigner, aggregate, handler, mode=self._mode
        )

    def run(
        self,
        assess: bool = False,
        threshold: float | None = None,
        trace=None,
        registry=None,
    ) -> QueryRun:
        """Execute the query over the configured stream.

        Args:
            assess: Also run the in-order oracle and attach a
                :class:`~repro.core.quality.QualityReport`.
            threshold: Violation threshold for the report; defaults to the
                quality target when one was configured.
            trace: Optional :class:`~repro.obs.trace.Tracer` (e.g. a
                :class:`~repro.obs.trace.TraceRecorder`) attached for the
                run; see ``docs/OBSERVABILITY.md``.
            registry: Optional :class:`~repro.obs.registry.MetricsRegistry`
                kept live during the run; the run's metrics are published
                into it at the end.
        """
        if self._elements is None:
            raise QueryError("query has no source; call .from_elements(...)")
        operator = self.build_operator()
        output = run_pipeline(
            self._elements, operator, trace=trace, registry=registry
        )
        report = None
        if assess:
            if threshold is None and isinstance(
                getattr(operator.handler, "target", None), QualityTarget
            ):
                threshold = operator.handler.target.threshold
            truth = oracle_results(self._elements, self._assigner, self._aggregate)
            report = assess_quality(output.results, truth, threshold=threshold)
        return QueryRun(
            output=output, report=report, handler=operator.handler, operator=operator
        )
