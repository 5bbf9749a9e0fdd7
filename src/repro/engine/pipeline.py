"""Pipeline execution: drive an operator over an arrival-ordered stream.

The simulated processing clock is the arrival timestamp of the element being
processed; wall-clock time is measured separately for throughput numbers.

Observability: ``run_pipeline`` accepts a
:class:`~repro.obs.trace.Tracer` (``trace=``) — attached to the operator,
its handler and the sorting buffer for the duration of the run — and a
:class:`~repro.obs.registry.MetricsRegistry` (``registry=``), which the
run keeps current chunk-by-chunk so callers holding the registry can
sample progress live.  Both default to off and cost nothing when unused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.metrics import LatencySummary, RunMetrics, SlackSample
from repro.engine.operator import Operator, WindowResult
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.element import StreamElement


@dataclass
class RunOutput:
    """Results plus instrumentation of one pipeline run."""

    results: list[WindowResult]
    metrics: RunMetrics
    observed_errors: list[float] = field(default_factory=list)

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
    sample_every: int = 0,
    batch_size: int = 0,
    sanitize: bool = False,
    trace: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> RunOutput:
    """Feed ``elements`` (arrival order) through ``operator`` to completion.

    Args:
        elements: Arrival-ordered stream (see ``inject_disorder``).
        operator: The operator under test.
        sample_every: When positive and the operator exposes a disorder
            handler, record a :class:`SlackSample` every N elements for
            adaptation-timeline plots.  Sampling is anchored at the first
            element that caused a release, so timelines never start with a
            spurious ``-inf`` frontier point.
        batch_size: When > 1, drive the operator through
            :meth:`~repro.engine.operator.Operator.process_many` in chunks
            of up to ``batch_size`` elements.  Simulated-time semantics
            (emit times, latencies, feedback, slack timeline) are identical
            to the scalar path; only wall-clock throughput changes.  Chunk
            boundaries are aligned to sampling points so timelines match the
            scalar run sample-for-sample (where an error-fed adaptation
            needs a cut, ``process_many`` makes it itself).
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
        registry: Back the run's :class:`RunMetrics` with this registry
            and keep its instruments current while the run executes
            (element/result counts per chunk, live buffer occupancy under
            ``handler.buffered``).  ``None`` (default) uses a private
            registry updated only at the end of the run.

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
    metrics = RunMetrics(registry)
    if registry is not None:
        set_registry = getattr(operator, "set_registry", None)
        if set_registry is not None:
            set_registry(registry)
    results: list[WindowResult] = []
    handler = getattr(operator, "handler", None)
    sampling = sample_every > 0 and handler is not None
    n = len(elements)
    sample_anchor = -1
    timeline = metrics.slack_timeline
    live = registry is not None
    if registry is not None:
        live_elements = registry.counter("pipeline.elements_in")
        live_results = registry.counter("pipeline.results_out")
        live_buffered = registry.gauge("handler.buffered")

    def update_live(processed: int) -> None:
        live_elements.inc(processed)
        live_results.set(len(results))
        if handler is not None:
            live_buffered.set(handler.buffered_count())

    def maybe_sample(index: int) -> None:
        nonlocal sample_anchor
        if sample_anchor < 0:
            if handler.released_count() <= 0:
                return
            sample_anchor = index
        if (index - sample_anchor) % sample_every:
            return
        element = elements[index]
        if element.arrival_time is None:
            return
        timeline.append(
            SlackSample(
                arrival_time=element.arrival_time,
                slack=handler.current_slack,
                frontier=handler.frontier,
                buffered=handler.buffered_count(),
            )
        )

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
        index = 0
        while index < n:
            if sampling and sample_anchor < 0:
                # Scan one element at a time until the first release, so the
                # sampling anchor lands on the same element as a scalar run.
                results.extend(process_many(elements[index : index + 1]))
                maybe_sample(index)
                if live:
                    update_live(1)
                index += 1
                continue
            stop = min(index + batch_size, n)
            if sampling:
                ahead = (index - sample_anchor) % sample_every
                next_sample = index + (sample_every - ahead) % sample_every
                stop = min(stop, next_sample + 1)
            results.extend(process_many(elements[index:stop]))
            if sampling:
                maybe_sample(stop - 1)
            if live:
                update_live(stop - index)
            index = stop
    elif sampling or live:
        process = operator.process
        for index in range(n):
            results.extend(process(elements[index]))
            if sampling:
                maybe_sample(index)
            if live:
                update_live(1)
    else:
        process = operator.process
        extend = results.extend
        for element in elements:
            extend(process(element))
    results.extend(operator.finish())
    metrics.wall_time_s = time.perf_counter() - start  # repro-lint: disable=R01

    metrics.n_elements = n
    metrics.n_results = len(results)
    if handler is not None:
        metrics.max_buffered = handler.max_buffered_count()
        metrics.released_count = handler.released_count()

    observed_errors: list[float] = []
    stats = getattr(operator, "stats", None)
    if stats is not None:
        metrics.late_dropped = getattr(stats, "late_dropped", 0)
        observed_errors = list(getattr(stats, "observed_errors", []))

    if tracer.enabled:
        tracer.emit(
            "run.end",
            _sim_time_of(elements[-1]) if elements else float("-inf"),
            n_results=len(results),
            wall_time_s=metrics.wall_time_s,
        )
    return RunOutput(results=results, metrics=metrics, observed_errors=observed_errors)
