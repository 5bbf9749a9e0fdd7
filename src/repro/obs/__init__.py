"""Structured observability: tracing, metrics registry, trace export.

The third leg of the production-readiness stool (after the batched
execution layer and the static-analysis suite): a window into *why* a run
behaved as it did — adaptation rounds, frontier stalls, buffer growth,
burst response.  Three pieces:

* :mod:`repro.obs.trace` — :class:`TraceRecorder` collects the
  span/event records the engine and the adaptive core ``emit`` under the
  one schema :data:`EVENT_KINDS`; the default :data:`NULL_TRACER` keeps
  the hot path at one attribute check when tracing is off.
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` holds named
  counters and gauges; a run keeps its progress counters current there
  and publishes its :class:`~repro.engine.metrics.RunMetrics` into it.
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSONL and Chrome
  ``trace_event`` (Perfetto) exporters plus a terminal summarizer,
  also available as ``python -m repro.obs``.

See ``docs/OBSERVABILITY.md`` for the trace schema, the Perfetto
walkthrough and measured overhead numbers.
"""

from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Instrument,
    MetricsRegistry,
)
from repro.obs.report import (
    frontier_stalls,
    infer_theta,
    summarize,
    theta_violations,
)
from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Instrument",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "TraceRecorder",
    "Tracer",
    "chrome_trace",
    "frontier_stalls",
    "infer_theta",
    "read_jsonl",
    "summarize",
    "theta_violations",
    "write_chrome_trace",
    "write_jsonl",
]
