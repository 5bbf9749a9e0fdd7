"""User-facing requirement specifications for quality-driven execution.

The paper's interface is the requirement itself: instead of tuning buffer
sizes or watermark lags, the user states either

* a :class:`QualityTarget` — "keep the mean relative error of window
  results at or below theta" — and the system minimizes latency subject to
  it, or
* a :class:`LatencyBudget` — "never delay a result by more than B seconds"
  — and the system maximizes quality subject to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QualityTarget:
    """Bound on result error; latency is minimized subject to it.

    The controller drives the EWMA of observed per-window relative errors
    toward the threshold; evaluation reports both mean error and the
    fraction of windows violating it.

    Attributes:
        threshold: Maximum acceptable relative error (e.g. ``0.05`` = 5%).
    """

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"quality threshold must lie in (0, 1), got {self.threshold}"
            )

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return f"error<={self.threshold:.3g}"


@dataclass(frozen=True)
class LatencyBudget:
    """Bound on buffering delay; quality is maximized subject to it.

    Attributes:
        seconds: Maximum slack the disorder handler may introduce.
    """

    seconds: float

    def __post_init__(self) -> None:
        if not self.seconds >= 0:
            raise ConfigurationError(
                f"latency budget must be non-negative, got {self.seconds}"
            )

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return f"latency<={self.seconds:.3g}s"
