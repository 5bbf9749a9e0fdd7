"""Feedback controllers closing the loop between model and observation.

The error models in :mod:`repro.core.estimators` are first-order
approximations; workloads violate their assumptions (values are not
exchangeable, delays correlate with values, windows are small).  The
controller layer corrects this at runtime: it compares the EWMA of
*observed* per-window errors (measured by the operator against
late-corrected truth) to the target, and scales the model's slack estimate
up or down accordingly.

Three controllers are provided:

* :class:`PIController` — the default: a multiplicative
  proportional-integral scheme on the log of the slack gain.
* :class:`AIMDController` — additive-increase/multiplicative-decrease on
  the gain, TCP-style; ablation comparison.
* :class:`PureFeedbackController` — ignores the model estimate entirely
  and walks the slack directly from feedback; the "no estimator" ablation.
* :class:`NoFeedbackController` — trusts the model blindly; the "no
  feedback" ablation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.streams.timebase import DurationS


class SlackController(ABC):
    """Combines the model's slack estimate with observed-error feedback."""

    # The protocol holds no float state; feedback controllers that keep
    # EWMA/multiplicative accumulators override this (lint rule R19).
    __numeric__ = "exact"

    @abstractmethod
    def observe_error(self, error: float) -> None:
        """Fold one observed per-window relative error sample in."""

    @abstractmethod
    def adjust(self, k_estimate: DurationS) -> float:
        """Map the model's slack estimate to the slack actually applied."""

    def state(self) -> dict:
        """Introspection snapshot for adaptation timelines."""
        return {}


class NoFeedbackController(SlackController):
    """Pass the model estimate through unchanged (ablation)."""

    __numeric__ = "exact"  # stateless pass-through

    def observe_error(self, error: float) -> None:
        pass

    def adjust(self, k_estimate: DurationS) -> float:
        return k_estimate


class PIController(SlackController):
    """Multiplicative PI control of the slack gain.

    Maintains ``gain``; each ``adjust`` applies
    ``K = k_estimate * gain * exp(kp * residual)`` where
    ``residual = (observed_error_ewma - target) / target`` and the gain
    itself integrates the residual: ``gain *= exp(ki * residual)``.
    Positive residual (too much error) inflates the slack; negative
    residual deflates it.  The gain is clamped to ``[gain_min, gain_max]``:
    the ceiling keeps pathological feedback from wedging the controller,
    and the floor bounds how far feedback may *shrink* the model estimate —
    a low floor saves latency in steady state but blunts the estimator's
    feed-forward response when the delay regime suddenly worsens (the gain
    must climb back before the slack can follow the estimate).
    """

    __numeric__ = "reassoc-tolerant"  # EWMA residual + log-gain integration

    def __init__(
        self,
        target: float,
        kp: float = 0.3,
        ki: float = 0.15,
        ewma_alpha: float = 0.05,
        gain_min: float = 0.2,
        gain_max: float = 10.0,
    ) -> None:
        if target <= 0:
            raise ConfigurationError(f"target must be positive, got {target}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(f"ewma_alpha must lie in (0,1], got {ewma_alpha}")
        if kp < 0 or ki < 0:
            raise ConfigurationError("kp and ki must be non-negative")
        if not 0 < gain_min <= 1.0 <= gain_max:
            raise ConfigurationError(
                f"need gain_min <= 1 <= gain_max, got [{gain_min}, {gain_max}]"
            )
        self.target = target
        self.kp = kp
        self.ki = ki
        self.ewma_alpha = ewma_alpha
        self.gain_min = gain_min
        self.gain_max = gain_max
        self.gain = 1.0
        self._error_ewma: float | None = None
        self.samples_seen = 0
        self.last_residual = 0.0

    def observe_error(self, error: float) -> None:
        if error < 0:
            raise ConfigurationError(f"error must be non-negative, got {error}")
        self.samples_seen += 1
        if self._error_ewma is None:
            self._error_ewma = error
        else:
            self._error_ewma += self.ewma_alpha * (error - self._error_ewma)

    def _residual(self) -> float:
        if self._error_ewma is None:
            return 0.0
        raw = (self._error_ewma - self.target) / self.target
        # Clamp so one wild sample cannot explode the exponentials.
        return max(-3.0, min(3.0, raw))

    def adjust(self, k_estimate: DurationS) -> float:
        residual = self._residual()
        self.last_residual = residual
        self.gain *= math.exp(self.ki * residual)
        self.gain = max(self.gain_min, min(self.gain_max, self.gain))
        proportional = math.exp(self.kp * residual)
        return max(0.0, k_estimate) * self.gain * proportional

    def state(self) -> dict:
        return {
            "gain": self.gain,
            "error_ewma": self._error_ewma,
            "samples": self.samples_seen,
            "residual": self.last_residual,
        }


class AIMDController(SlackController):
    """TCP-style gain control: additive increase on violation, otherwise
    multiplicative decay toward 1."""

    __numeric__ = "reassoc-tolerant"  # EWMA + multiplicative gain walk

    def __init__(
        self,
        target: float,
        increase: float = 0.25,
        decay: float = 0.98,
        ewma_alpha: float = 0.05,
        gain_max: float = 20.0,
    ) -> None:
        if target <= 0:
            raise ConfigurationError(f"target must be positive, got {target}")
        self.target = target
        self.increase = increase
        self.decay = decay
        self.ewma_alpha = ewma_alpha
        self.gain_max = gain_max
        self.gain = 1.0
        self._error_ewma: float | None = None

    def observe_error(self, error: float) -> None:
        if self._error_ewma is None:
            self._error_ewma = error
        else:
            self._error_ewma += self.ewma_alpha * (error - self._error_ewma)

    def adjust(self, k_estimate: DurationS) -> float:
        if self._error_ewma is not None:
            if self._error_ewma > self.target:
                self.gain = min(self.gain_max, self.gain + self.increase)
            else:
                self.gain = 1.0 + (self.gain - 1.0) * self.decay
        return max(0.0, k_estimate) * self.gain

    def state(self) -> dict:
        return {"gain": self.gain, "error_ewma": self._error_ewma}


class PureFeedbackController(SlackController):
    """Model-free slack search: walk K itself from feedback (ablation).

    Ignores ``k_estimate`` after initialization; multiplies its own slack
    up/down depending on whether observed error exceeds the target.  Shows
    what the estimator contributes: pure feedback converges but reacts a
    full feedback-delay slower to regime changes.
    """

    __numeric__ = "reassoc-tolerant"  # EWMA + multiplicative slack walk

    def __init__(
        self,
        target: float,
        initial_k: DurationS = 0.1,
        up: float = 1.3,
        down: float = 0.95,
        ewma_alpha: float = 0.05,
        k_max: DurationS = 3600.0,
    ) -> None:
        if target <= 0:
            raise ConfigurationError(f"target must be positive, got {target}")
        if initial_k < 0:
            raise ConfigurationError(f"initial_k must be non-negative, got {initial_k}")
        if not (up > 1.0 and 0.0 < down < 1.0):
            raise ConfigurationError("need up > 1 and 0 < down < 1")
        self.target = target
        self.k = max(initial_k, 1e-3)
        self.up = up
        self.down = down
        self.ewma_alpha = ewma_alpha
        self.k_max = k_max
        self._error_ewma: float | None = None

    def observe_error(self, error: float) -> None:
        if self._error_ewma is None:
            self._error_ewma = error
        else:
            self._error_ewma += self.ewma_alpha * (error - self._error_ewma)

    def adjust(self, k_estimate: DurationS) -> float:
        if self._error_ewma is not None:
            if self._error_ewma > self.target:
                self.k = min(self.k_max, self.k * self.up)
            else:
                self.k *= self.down
        return self.k

    def state(self) -> dict:
        return {"k": self.k, "error_ewma": self._error_ewma}
