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

    Attributes:
        threshold: Maximum acceptable relative error (e.g. ``0.05`` = 5%).
        metric: Which error statistic the threshold constrains.  The
            controller drives the EWMA of observed per-window errors toward
            this bound; evaluation reports both mean error and the fraction
            of windows violating the threshold.
    """

    threshold: float
    metric: str = "mean_relative_error"

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"quality threshold must lie in (0, 1), got {self.threshold}"
            )
        if self.metric not in ("mean_relative_error",):
            raise ConfigurationError(f"unknown quality metric {self.metric!r}")

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


@dataclass(frozen=True)
class BoundedQualityTarget:
    """Quality target with a hard latency ceiling.

    "Meet the error target when the stream allows it, but never delay a
    result by more than ``budget_seconds``" — the SLA most deployments
    actually want.  The adaptive handler computes the quality-driven slack
    and clamps it at the budget; when disorder is so heavy that the budget
    cannot buy the target, latency wins and the quality shortfall shows up
    in the report.

    Attributes:
        threshold: Maximum acceptable relative error when attainable.
        budget_seconds: Hard ceiling on the buffering slack.
    """

    threshold: float
    budget_seconds: float

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"quality threshold must lie in (0, 1), got {self.threshold}"
            )
        if not self.budget_seconds >= 0:
            raise ConfigurationError(
                f"latency budget must be non-negative, got {self.budget_seconds}"
            )

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return (
            f"error<={self.threshold:.3g} while "
            f"latency<={self.budget_seconds:.3g}s"
        )
