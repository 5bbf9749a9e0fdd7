"""Pipeline execution: drive an operator over an arrival-ordered stream.

The simulated processing clock is the arrival timestamp of the element being
processed; wall-clock time is measured separately for throughput numbers.

Observability: ``run_pipeline`` accepts a
:class:`~repro.obs.trace.Tracer` (``trace=``) — attached to the operator,
its handler and the sorting buffer for the duration of the run — and a
:class:`~repro.obs.registry.MetricsRegistry` (``registry=``), whose
progress instruments the run keeps current chunk-by-chunk and into which
it publishes its :class:`RunMetrics` when it ends.  Both default to off
and cost nothing when unused.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

from repro.engine.metrics import METRIC_NAMES, LatencySummary, RunMetrics
from repro.engine.operator import Operator, WindowResult
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement


@dataclass
class RunOutput:
    """Results plus instrumentation of one pipeline run; compare ``observed_errors`` via ``list``."""

    results: list[WindowResult]
    metrics: RunMetrics
    #: One error per retired window, in the operator's own ``array('d')``;
    #: empty when the run's handler takes no feedback
    #: (``DisorderHandler.takes_feedback``) and none was tracked.
    observed_errors: array[float] = field(default_factory=lambda: array("d"))

    def latency_summary(self, include_flushed: bool = False) -> LatencySummary:
        """Latency distribution over frontier-closed windows.

        Windows force-closed at stream end are excluded by default: their
        emit time is the last arrival of the whole run, not a property of
        the disorder-handling policy under test.
        """
        return LatencySummary.from_values(
            [
                r.latency
                for r in self.results
                if include_flushed or not r.flushed
            ]
        )


def _sim_time_of(element: StreamElement) -> float:
    """Arrival-time stamp of an element, NaN when it has none."""
    arrival = element.arrival_time
    return arrival if arrival is not None else float("nan")


def run_pipeline(
    elements: list[StreamElement],
    operator: Operator,
    batch_size: int = 0,
    sanitize: bool = False,
    trace: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> RunOutput:
    """Feed ``elements`` (arrival order) through ``operator`` to completion.

    Args:
        elements: Arrival-ordered stream (see ``inject_disorder``).
        operator: The operator under test.
        batch_size: When > 1, drive the operator through
            :meth:`~repro.engine.operator.Operator.process_many` in chunks
            of up to ``batch_size`` elements.  Simulated-time semantics
            (emit times, latencies, feedback) are identical to the scalar
            path; only wall-clock throughput changes (where an error-fed
            adaptation needs a cut, ``process_many`` makes it itself).
        sanitize: ``True`` wraps the operator and its handler in the
            StreamSan runtime checkers (see
            :mod:`repro.analysis.sanitizer`); any violation raises
            :class:`~repro.errors.SanitizerError` at the call site.  When
            ``False`` (the default) nothing is wrapped and there is no
            overhead.  Any other value raises
            :class:`~repro.errors.ConfigurationError`.
        trace: A :class:`~repro.obs.trace.Tracer` (usually a
            :class:`~repro.obs.trace.TraceRecorder`) attached to the
            operator, handler and buffer for this run.  ``None`` (default)
            leaves the shared null tracer in place — the hot path pays one
            attribute check per trace site.  Trace content never influences
            results: a traced run emits bit-identical windows.
        registry: Keep ``pipeline.elements_in``, ``pipeline.results_out``
            and ``handler.buffered`` in this registry current while the run
            executes (per chunk, or per element on the scalar path), and
            publish the finished :class:`RunMetrics` into it under
            :data:`~repro.engine.metrics.METRIC_NAMES`.  ``None`` (default)
            touches no registry.

    Returns:
        :class:`RunOutput` with all emitted window results and run metrics.
    """
    if batch_size < 0:
        raise ConfigurationError(f"batch_size must be non-negative, got {batch_size}")
    if type(sanitize) is not bool:
        raise ConfigurationError(
            f"sanitize must be True or False, got {sanitize!r}"
        )
    tracer = trace if trace is not None else NULL_TRACER
    if sanitize:
        from repro.analysis.sanitizer import sanitize_operator

        operator = sanitize_operator(operator)
    if tracer.enabled:
        set_tracer = getattr(operator, "set_tracer", None)
        if set_tracer is not None:
            set_tracer(tracer)
    if registry is not None:
        set_registry = getattr(operator, "set_registry", None)
        if set_registry is not None:
            set_registry(registry)
        live_elements = registry.counter("pipeline.elements_in")
        live_results = registry.counter("pipeline.results_out")
        live_buffered = registry.gauge("handler.buffered")
    results: list[WindowResult] = []
    handler = getattr(operator, "handler", None)
    n = len(elements)

    def update_live(processed: int) -> None:
        live_elements.inc(processed)
        live_results.set(len(results))
        if handler is not None:
            live_buffered.set(handler.buffered_count())

    if tracer.enabled:
        tracer.emit(
            "run.start",
            _sim_time_of(elements[0]) if elements else float("-inf"),
            handler=(
                handler.describe() if handler is not None else type(operator).__name__
            ),
            n_elements=n,
            batch_size=batch_size,
            sanitize=sanitize,
        )
    # Wall-clock reads are banned in engine code (R01); this pair only
    # feeds the throughput metric and never influences results.
    start = time.perf_counter()  # repro-lint: disable=R01
    if batch_size > 1:
        process_many = operator.process_many
        for index in range(0, n, batch_size):
            chunk = elements[index : index + batch_size]
            results.extend(process_many(chunk))
            if registry is not None:
                update_live(len(chunk))
    elif registry is not None:
        process = operator.process
        for element in elements:
            results.extend(process(element))
            update_live(1)
    else:
        process = operator.process
        extend = results.extend
        for element in elements:
            extend(process(element))
    results.extend(operator.finish())
    wall_time_s = time.perf_counter() - start  # repro-lint: disable=R01

    stats = getattr(operator, "stats", None)
    metrics = RunMetrics(
        n_elements=n,
        n_results=len(results),
        wall_time_s=wall_time_s,
        late_dropped=getattr(stats, "late_dropped", 0),
        max_buffered=handler.max_buffered_count() if handler is not None else 0,
        released_count=handler.released_count() if handler is not None else 0,
    )
    if registry is not None:
        counter, gauge = registry.counter, registry.gauge
        counter(METRIC_NAMES["n_elements"]).set(metrics.n_elements)
        counter(METRIC_NAMES["n_results"]).set(metrics.n_results)
        gauge(METRIC_NAMES["wall_time_s"]).set(metrics.wall_time_s)
        counter(METRIC_NAMES["late_dropped"]).set(metrics.late_dropped)
        gauge(METRIC_NAMES["max_buffered"]).set(metrics.max_buffered)
        counter(METRIC_NAMES["released_count"]).set(metrics.released_count)

    if tracer.enabled:
        tracer.emit(
            "run.end",
            _sim_time_of(elements[-1]) if elements else float("-inf"),
            n_results=len(results),
            wall_time_s=wall_time_s,
        )
    return RunOutput(results, metrics, getattr(stats, "observed_errors", array("d")))
