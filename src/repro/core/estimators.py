"""Quality estimation: mapping late-input mass to expected result error.

The adaptive handler reasons in two steps:

1. For a candidate slack ``K``, the fraction of elements arriving later
   than ``K`` is ``p = P(delay > K)``, read off the live delay sample.
   Those elements miss their windows.
2. A *per-aggregate error model* translates a missing fraction ``p`` into
   an expected relative error of the window result.  The models are
   deliberately coarse first-order approximations — the runtime feedback
   controller (see :mod:`repro.core.controller`) corrects their residual
   bias against *observed* errors, which is the division of labour the
   quality-driven design relies on.

Every model is monotone in ``p`` and therefore invertible:
``late_fraction_for_error(theta)`` answers "how much late mass can I
afford", which the handler turns into the smallest sufficient ``K`` via the
delay quantile ``K = Q(1 - p)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.engine.aggregates import AggregateFunction
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StreamContext:
    """Live stream statistics the error models condition on.

    Attributes:
        dispersion: std/|mean| of recent values (scales mean/rank models).
        expected_window_count: Expected elements per window (``nan`` when
            unknown).
    """

    dispersion: float
    expected_window_count: float

    @staticmethod
    def unknown() -> "StreamContext":
        return StreamContext(dispersion=1.0, expected_window_count=math.nan)


class ErrorModel(ABC):
    """Monotone map between late fraction ``p`` and expected error."""

    kind = "abstract"
    # Error models are stateless maps: no accumulated float state, each
    # estimate is a fresh bounded-rounding expression (lint rule R19).
    __numeric__ = "exact"

    @abstractmethod
    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        """Expected relative error when a fraction ``p`` of input is late."""

    @abstractmethod
    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        """Largest ``p`` whose expected error stays at or below ``theta``."""

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return self.kind


def _check_fraction(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"late fraction must lie in [0,1], got {p}")
    return p


def _check_theta(theta: float) -> float:
    if theta < 0:
        raise ConfigurationError(f"error bound must be non-negative, got {theta}")
    return theta


class AdditiveMassModel(ErrorModel):
    """Count/sum: result mass is proportional to input mass.

    Missing a fraction ``p`` of (roughly exchangeable) input removes a
    fraction ``p`` of the result: ``error = p``.
    """

    kind = "additive_mass"

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return _check_fraction(p)

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        return min(1.0, _check_theta(theta))


class MeanModel(ErrorModel):
    """Mean-like aggregates: error scales with dispersion and sample size.

    Dropping a random fraction ``p`` out of ``n`` window elements shifts the
    mean by roughly ``std * sqrt(p / n)``; relative to ``|mean|`` that is
    ``dispersion * sqrt(p / n)``.  With unknown ``n`` the model degrades to
    the conservative ``dispersion * sqrt(p)``.
    """

    kind = "mean"

    def _scale(self, context: StreamContext) -> float:
        n = context.expected_window_count
        if math.isnan(n) or n < 1.0:
            n = 1.0
        return context.dispersion / math.sqrt(n)

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return self._scale(context) * math.sqrt(_check_fraction(p))

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        scale = self._scale(context)
        if scale <= 0:
            return 1.0
        return min(1.0, (_check_theta(theta) / scale) ** 2)


class ExtremumModel(ErrorModel):
    """Min/max: wrong only when an extreme element is among the late ones.

    The probability that the window extremum is late is ``p`` (late
    elements are exchangeable with on-time ones); when it is, the result
    moves by about one inter-extreme gap, modelled as a ``dispersion``-sized
    relative step: ``error = p * dispersion``.
    """

    kind = "extremum"

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return _check_fraction(p) * max(context.dispersion, 1e-9)

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        scale = max(context.dispersion, 1e-9)
        return min(1.0, _check_theta(theta) / scale)


class RankModel(ErrorModel):
    """Median/quantile: ranks shift by about half the missing mass.

    Removing a random ``p`` fraction moves the q-quantile's rank by at most
    ``p/2`` of the sample; translated through the value spread this gives
    ``error = 0.5 * p * dispersion``.
    """

    kind = "rank"

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return 0.5 * _check_fraction(p) * max(context.dispersion, 1e-9)

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        scale = 0.5 * max(context.dispersion, 1e-9)
        return min(1.0, _check_theta(theta) / scale)


class DistinctModel(ErrorModel):
    """Distinct count: each late element removes at most one distinct value.

    Under the exchangeability assumption the distinct count scales with
    input mass no faster than linearly: ``error <= p``.
    """

    kind = "distinct"

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return _check_fraction(p)

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        return min(1.0, _check_theta(theta))


class NaiveModel(ErrorModel):
    """Ablation model: ``error = p`` regardless of the aggregate.

    Identical to :class:`AdditiveMassModel` but used deliberately on
    aggregates it does not fit, to quantify what the per-aggregate models
    buy (the E5 ablation).
    """

    kind = "naive"

    def error_from_late_fraction(self, p: float, context: StreamContext) -> float:
        return _check_fraction(p)

    def late_fraction_for_error(self, theta: float, context: StreamContext) -> float:
        return min(1.0, _check_theta(theta))


_MODELS: dict[str, type[ErrorModel]] = {
    "additive_mass": AdditiveMassModel,
    "mean": MeanModel,
    "extremum": ExtremumModel,
    "rank": RankModel,
    "distinct": DistinctModel,
    "naive": NaiveModel,
}


def make_error_model(source: str | AggregateFunction) -> ErrorModel:
    """Build the error model for an aggregate (or a model kind by name)."""
    kind = source if isinstance(source, str) else source.error_model_kind
    try:
        return _MODELS[kind]()
    except KeyError:
        raise ConfigurationError(
            f"unknown error model kind {kind!r}; known: {sorted(_MODELS)}"
        ) from None
