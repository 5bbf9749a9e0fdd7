"""Independent reference results and the scoring of a run against them.

No import from ``repro.engine``: per key, event times are sorted and window
sums are differences of a prefix sum between ``searchsorted`` bounds.  The
self-tests cross-check it against ``repro.engine.oracle`` on a small prefix.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

#: Relative-error floor on the denominator (the repository's scoring floor).
ERROR_EPS = 1e-9


@dataclass
class Reference:
    """Exact ``sum`` per non-empty sliding window, keyed ``(key, window index)``."""

    windows: dict[tuple[object, int], tuple[float, int]]
    slide: float
    compute_s: float

    def slot(self, key: object, window_start: float) -> tuple[object, int]:
        return (key, int(round(window_start / self.slide)))


def compute_reference(elements, size: float, slide: float) -> Reference:
    """Window ``i`` covers ``[i * slide, i * slide + size)``, ``i >= 0``."""
    start = time.perf_counter()
    by_key: dict[object, tuple[list[float], list[float]]] = {}
    for element in elements:
        times, values = by_key.setdefault(element.key, ([], []))
        times.append(element.event_time)
        values.append(element.value)
    windows: dict[tuple[object, int], tuple[float, int]] = {}
    for key, (times, values) in by_key.items():
        event_times = np.asarray(times, dtype=float)
        order = np.argsort(event_times, kind="stable")
        event_times = event_times[order]
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(values, dtype=float)[order])))
        starts = np.arange(int(math.floor(event_times[-1] / slide)) + 1) * slide
        low = np.searchsorted(event_times, starts, side="left")
        high = np.searchsorted(event_times, starts + size, side="left")
        sums = prefix[high] - prefix[low]
        for index in np.flatnonzero(high > low).tolist():
            windows[(key, index)] = (float(sums[index]), int(high[index] - low[index]))
    return Reference(windows, slide, time.perf_counter() - start)


@dataclass
class Score:
    """A run's results scored against the reference."""

    attempted: int
    failed: int
    error_mean: float
    theta_violation_frac: float
    latency_mean_s: float
    latency_p99_s: float
    latency_samples: int
    #: sha256 over sorted ``(key, window, value, count)``: equal across the
    #: overlap-64 pair, whose emit times legitimately differ.
    values_digest: str


def score(results, reference: Reference, theta: float, exact: bool) -> Score:
    """Score ``results`` (``WindowResult`` list) against ``reference``.

    A reference window fails when it is missing, emitted twice at revision
    0, non-finite, or (``exact``) off by more than :data:`ERROR_EPS`
    relative; an emitted window the reference does not have fails too.
    Missing windows score error 1.0, as in the repository's quality report.
    """
    expected = reference.windows
    errors: dict[tuple[object, int], float] = {}
    failed = 0
    latencies = []
    digest_rows = []
    for result in results:
        if not result.flushed:
            latencies.append(result.latency)
        if result.revision != 0:
            continue
        slot = reference.slot(result.key, result.window.start)
        value = float(result.value)
        digest_rows.append((repr(result.key), slot[1], value.hex(), result.count))
        truth = expected.get(slot)
        if truth is None or slot in errors or not math.isfinite(value):
            failed += 1
            if truth is not None:
                errors[slot] = 1.0
            continue
        error = abs(value - truth[0]) / max(abs(truth[0]), ERROR_EPS)
        errors[slot] = error
        if exact and (error > ERROR_EPS or result.count != truth[1]):
            failed += 1
    failed += len(expected) - len(errors)
    all_errors = np.zeros(len(expected))
    all_errors[: len(errors)] = list(errors.values())
    all_errors[len(errors):] = 1.0
    latency = np.asarray(latencies, dtype=float)
    digest = hashlib.sha256(repr(sorted(digest_rows)).encode()).hexdigest()
    return Score(
        attempted=len(expected),
        failed=failed,
        error_mean=float(all_errors.mean()),
        theta_violation_frac=float((all_errors > theta).mean()),
        latency_mean_s=float(latency.mean()) if latency.size else math.nan,
        latency_p99_s=float(np.quantile(latency, 0.99)) if latency.size else math.nan,
        latency_samples=int(latency.size),
        values_digest=digest,
    )
