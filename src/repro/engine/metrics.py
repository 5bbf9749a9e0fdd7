"""Run instrumentation: latency summaries, throughput, buffer telemetry.

:class:`RunMetrics` is a **view over a metrics registry**
(:class:`repro.obs.registry.MetricsRegistry`): every scalar it exposes is
backed by a named counter or gauge, which the pipeline keeps current while
a run executes.  Callers that only read the finished object see exactly
the pre-registry behaviour; callers that pass their own registry to
:func:`~repro.engine.pipeline.run_pipeline` can sample the same numbers
*live* mid-run (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.registry import MetricsRegistry
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


@dataclass(frozen=True, slots=True)
class SlackSample:
    """One point of the handler timeline (for adaptation plots)."""

    arrival_time: float
    slack: float
    frontier: float
    buffered: int


#: Registry names backing each RunMetrics scalar; the pipeline updates
#: these instruments live, RunMetrics reads them back.  Documented in
#: docs/OBSERVABILITY.md ("Metric names").
METRIC_NAMES = {
    "n_elements": "pipeline.elements_in",
    "n_results": "pipeline.results_out",
    "wall_time_s": "pipeline.wall_time_s",
    "late_dropped": "operator.late_dropped",
    "max_buffered": "handler.max_buffered",
    "released_count": "handler.released",
}


class RunMetrics:
    """Everything measured during one pipeline run.

    A thin view over a :class:`~repro.obs.registry.MetricsRegistry`:
    reading a field reads the backing instrument, assigning a field writes
    it.  Constructing with an existing registry makes this object a live
    window onto counts another component is still updating.  Slotted, so
    assigning a misspelled field raises ``AttributeError`` instead of
    silently creating an attribute no report reads.
    """

    __slots__ = (
        "registry",
        "slack_timeline",
        "_elements_in",
        "_results_out",
        "_wall_time",
        "_late_dropped",
        "_max_buffered",
        "_released",
    )

    registry: MetricsRegistry
    slack_timeline: list[SlackSample]

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        n_elements: int = 0,
        n_results: int = 0,
        wall_time_s: DurationS = 0.0,
        late_dropped: int = 0,
        max_buffered: int = 0,
        released_count: int = 0,
        slack_timeline: list[SlackSample] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._elements_in = self.registry.counter(METRIC_NAMES["n_elements"])
        self._results_out = self.registry.counter(METRIC_NAMES["n_results"])
        self._wall_time = self.registry.gauge(METRIC_NAMES["wall_time_s"])
        self._late_dropped = self.registry.counter(METRIC_NAMES["late_dropped"])
        self._max_buffered = self.registry.gauge(METRIC_NAMES["max_buffered"])
        self._released = self.registry.counter(METRIC_NAMES["released_count"])
        # Only nonzero initializers overwrite the instruments: a registry
        # handed in mid-flight keeps its live values.
        if n_elements:
            self._elements_in.set(n_elements)
        if n_results:
            self._results_out.set(n_results)
        if wall_time_s:
            self._wall_time.set(wall_time_s)
        if late_dropped:
            self._late_dropped.set(late_dropped)
        if max_buffered:
            self._max_buffered.set(max_buffered)
        if released_count:
            self._released.set(released_count)
        self.slack_timeline = slack_timeline if slack_timeline is not None else []

    # ------------------------------------------------------------------ #
    # registry-backed fields

    @property
    def n_elements(self) -> int:
        """Elements fed into the pipeline."""
        return self._elements_in.value

    @n_elements.setter
    def n_elements(self, value: int) -> None:
        self._elements_in.set(value)

    @property
    def n_results(self) -> int:
        """Window results emitted (including flushed ones)."""
        return self._results_out.value

    @n_results.setter
    def n_results(self, value: int) -> None:
        self._results_out.set(value)

    @property
    def wall_time_s(self) -> DurationS:
        """Wall-clock seconds the run took (throughput measurement only)."""
        return self._wall_time.value

    @wall_time_s.setter
    def wall_time_s(self, value: DurationS) -> None:
        self._wall_time.set(value)

    @property
    def late_dropped(self) -> int:
        """Elements that arrived after their windows were finalized."""
        return self._late_dropped.value

    @late_dropped.setter
    def late_dropped(self, value: int) -> None:
        self._late_dropped.set(value)

    @property
    def max_buffered(self) -> int:
        """High-water mark of elements held back by the handler."""
        return int(self._max_buffered.value)

    @max_buffered.setter
    def max_buffered(self, value: int) -> None:
        self._max_buffered.set(value)

    @property
    def released_count(self) -> int:
        """Elements the handler released downstream."""
        return self._released.value

    @released_count.setter
    def released_count(self, value: int) -> None:
        self._released.set(value)

    # ------------------------------------------------------------------ #
    # derived views

    @property
    def throughput_eps(self) -> float:
        """Elements processed per wall-clock second."""
        if self.wall_time_s <= 0:
            return math.nan
        return self.n_elements / self.wall_time_s

    def as_dict(self) -> dict[str, object]:
        """Scalar fields as a plain dict (reports, JSON export)."""
        return {
            "n_elements": self.n_elements,
            "n_results": self.n_results,
            "wall_time_s": self.wall_time_s,
            "late_dropped": self.late_dropped,
            "max_buffered": self.max_buffered,
            "released_count": self.released_count,
        }

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"RunMetrics({parts})"
