"""Run instrumentation: latency summaries, throughput, buffer telemetry.

:class:`RunMetrics` is the record one pipeline run returns, filled once
when the run ends.  A run handed a
:class:`~repro.obs.registry.MetricsRegistry` also publishes the same six
numbers into it under :data:`METRIC_NAMES` (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.streams.timebase import DurationS


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Distribution summary of per-window result latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @staticmethod
    def from_values(values: list[float]) -> "LatencySummary":
        """Summarize a list of latency samples.

        NaN samples are dropped before summarizing (a NaN latency means
        "no meaningful latency", e.g. an unmatched oracle window — folding
        it in would poison every percentile); an input of only-NaN or no
        samples yields the all-NaN summary with ``count == 0``.
        """
        finite = [value for value in values if not math.isnan(value)]
        if not finite:
            return LatencySummary(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        array = np.asarray(finite, dtype=float)
        return LatencySummary(
            count=len(finite),
            mean=float(array.mean()),
            p50=float(np.quantile(array, 0.5)),
            p95=float(np.quantile(array, 0.95)),
            p99=float(np.quantile(array, 0.99)),
            maximum=float(array.max()),
        )


#: Registry names the pipeline publishes each RunMetrics field under.
#: Documented in docs/OBSERVABILITY.md ("Metric names").
METRIC_NAMES = {
    "n_elements": "pipeline.elements_in",
    "n_results": "pipeline.results_out",
    "wall_time_s": "pipeline.wall_time_s",
    "late_dropped": "operator.late_dropped",
    "max_buffered": "handler.max_buffered",
    "released_count": "handler.released",
}


@dataclass(slots=True)
class RunMetrics:
    """Everything measured during one pipeline run.

    Slotted, so assigning a misspelled field raises ``AttributeError``
    instead of silently creating an attribute no report reads.

    Attributes:
        n_elements: Elements fed into the pipeline.
        n_results: Window results emitted (including flushed ones).
        wall_time_s: Wall-clock seconds the run took (throughput only).
        late_dropped: Elements that arrived after their windows were
            finalized.
        max_buffered: High-water mark of elements held back by the handler.
        released_count: Elements the handler released downstream.
    """

    n_elements: int = 0
    n_results: int = 0
    wall_time_s: DurationS = 0.0
    late_dropped: int = 0
    max_buffered: int = 0
    released_count: int = 0

    @property
    def throughput_eps(self) -> float:
        """Elements processed per wall-clock second."""
        if self.wall_time_s <= 0:
            return math.nan
        return self.n_elements / self.wall_time_s

    def as_dict(self) -> dict[str, object]:
        """Scalar fields as a plain dict (reports, JSON export)."""
        return {name: getattr(self, name) for name in METRIC_NAMES}
