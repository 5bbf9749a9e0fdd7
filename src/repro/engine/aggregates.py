"""Aggregate function library for windowed queries.

Each aggregate follows the accumulate/result protocol: ``create()`` builds a
mutable accumulator, ``add`` folds one value in, ``result`` extracts the
answer.  Accumulators also support ``merge`` (for tree-mode slices and
sharded runs) and, where mathematically possible, late values can simply be
``add``-ed after a snapshot was taken — which is how the engine measures the
error of early-emitted results against late-corrected truth.

Every aggregate declares an ``error_model_kind`` consumed by
:mod:`repro.core.estimators`, naming how missing (late) input mass
translates into result error:

* ``"additive_mass"`` — count/sum: error is proportional to the missing
  fraction of input mass.
* ``"mean"`` — mean-like: missing a random fraction p perturbs the result by
  roughly p * dispersion/|mean|.
* ``"extremum"`` — min/max: the result is wrong only when an extreme value
  is among the late elements (probability ~ p per window).
* ``"rank"`` — median/quantiles: rank statistics move by about p/2 of the
  value spread.
* ``"distinct"`` — distinct count: each late element can remove at most one
  distinct value; error ~ p.

Every aggregate also declares a ``__numeric__`` annotation naming its
floating-point error discipline (``"exact"``, ``"compensated"`` or
``"reassoc-tolerant"`` — see ``docs/NUMERICS.md``).  Sum-like folds route
through the Neumaier primitives in :mod:`repro.core.numeric`, which makes
scalar and batched folds bit-identical and bounds accumulation error at
O(1) ulp; ``tests/property/test_numeric_properties.py`` holds every
discipline to an exact rational reference.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.core.numeric import (
    neumaier_add,
    neumaier_add_many,
    neumaier_merge,
    neumaier_total,
)
from repro.errors import ConfigurationError

#: Below this batch size the numpy fast paths lose to plain Python loops
#: (array conversion dominates); ``add_many`` overrides fall back to builtins.
_NUMPY_FOLD_MIN = 32


class AggregateFunction(ABC):
    """Protocol for incremental window aggregates."""

    # No ``__numeric__`` default here: concrete aggregates each declare
    # their own discipline (lint rule R19).

    name: str = "aggregate"
    error_model_kind: str = "additive_mass"

    @abstractmethod
    def create(self) -> Any:
        """Build an empty accumulator."""

    @abstractmethod
    def add(self, accumulator: Any, value: float) -> None:
        """Fold one value into the accumulator in place."""

    def add_many(self, accumulator: Any, values: list[float]) -> None:
        """Fold a batch of values into the accumulator in place.

        Contract: must be equivalent to ``for v in values: add(acc, v)``.
        Order-independent aggregates (count, min, max, median, distinct...)
        and the compensated folds (sum, mean — their batched path performs
        the *same* Neumaier fold as repeated ``add``) match bit-for-bit;
        only aggregates explicitly annotated ``__numeric__ =
        "reassoc-tolerant"`` (stddev's Chan combine) may differ by
        re-association rounding, which the equivalence suite compares at
        ~1e-9 relative tolerance.  The base implementation is the scalar
        loop; subclasses override with compensated/builtin fast paths.
        """
        add = self.add
        for value in values:
            add(accumulator, value)

    @abstractmethod
    def result(self, accumulator: Any) -> float:
        """Extract the aggregate value; empty windows return ``nan``."""

    @abstractmethod
    def merge(self, accumulator: Any, other: Any) -> Any:
        """Merge ``other`` into ``accumulator`` in place and return it."""

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return self.name


class CountAggregate(AggregateFunction):
    """Number of elements in the window."""

    name = "count"
    error_model_kind = "additive_mass"
    __numeric__ = "exact"  # integer arithmetic, exact under 2**53

    def create(self) -> list[int]:
        return [0]

    def add(self, accumulator: list[int], value: float) -> None:
        accumulator[0] += 1

    def add_many(self, accumulator: list[int], values: list[float]) -> None:
        accumulator[0] += len(values)

    def result(self, accumulator: list[int]) -> float:
        return float(accumulator[0])

    def merge(self, accumulator: list[int], other: list[int]) -> list[int]:
        accumulator[0] += other[0]
        return accumulator


class SumAggregate(AggregateFunction):
    """Sum of values, Neumaier-compensated.

    Scalar and batched folds perform the identical compensated addition
    sequence, so ``add_many`` matches repeated ``add`` bit-for-bit (the
    old numpy fast path used a different summation order and rounded
    differently — see ``docs/NUMERICS.md``).  The accumulator is the
    primitives' own ``[total, compensation]`` pair, so the folds *are* the
    primitives of :mod:`repro.core.numeric`: a merge costs one Python
    frame, not a method forwarding to one.
    """

    name = "sum"
    error_model_kind = "additive_mass"
    __numeric__ = "compensated"

    def create(self) -> list[float]:
        return [0.0, 0.0]  # [total, compensation]

    add = staticmethod(neumaier_add)
    add_many = staticmethod(neumaier_add_many)
    result = staticmethod(neumaier_total)
    merge = staticmethod(neumaier_merge)


class MeanAggregate(AggregateFunction):
    """Arithmetic mean of values (compensated sum over exact count)."""

    name = "mean"
    error_model_kind = "mean"
    __numeric__ = "compensated"

    def create(self) -> list[float]:
        return [0.0, 0.0, 0.0]  # [total, compensation, count]

    def add(self, accumulator: list[float], value: float) -> None:
        neumaier_add(accumulator, value)
        accumulator[2] += 1.0

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        neumaier_add_many(accumulator, values)
        accumulator[2] += float(len(values))

    def result(self, accumulator: list[float]) -> float:
        if accumulator[2] == 0:
            return math.nan
        return neumaier_total(accumulator) / accumulator[2]

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        neumaier_merge(accumulator, other)
        accumulator[2] += other[2]  # repro: numeric=exact - integer counts
        return accumulator


class MinAggregate(AggregateFunction):
    """Minimum value."""

    name = "min"
    error_model_kind = "extremum"
    __numeric__ = "exact"  # comparisons only; the result is an input value

    def create(self) -> list[float]:
        return [math.inf]

    def add(self, accumulator: list[float], value: float) -> None:
        if value < accumulator[0]:
            accumulator[0] = value

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        if not values:
            return
        smallest = min(values)
        if smallest < accumulator[0]:
            accumulator[0] = smallest

    def result(self, accumulator: list[float]) -> float:
        return accumulator[0] if accumulator[0] != math.inf else math.nan

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        if other[0] < accumulator[0]:
            accumulator[0] = other[0]
        return accumulator


class MaxAggregate(AggregateFunction):
    """Maximum value."""

    name = "max"
    error_model_kind = "extremum"
    __numeric__ = "exact"  # comparisons only; the result is an input value

    def create(self) -> list[float]:
        return [-math.inf]

    def add(self, accumulator: list[float], value: float) -> None:
        if value > accumulator[0]:
            accumulator[0] = value

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        if not values:
            return
        largest = max(values)
        if largest > accumulator[0]:
            accumulator[0] = largest

    def result(self, accumulator: list[float]) -> float:
        return accumulator[0] if accumulator[0] != -math.inf else math.nan

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        if other[0] > accumulator[0]:
            accumulator[0] = other[0]
        return accumulator


class StdDevAggregate(AggregateFunction):
    """Population standard deviation via Welford's online algorithm."""

    name = "stddev"
    error_model_kind = "mean"
    # Welford/Chan recurrences are the numerically *stable* forms but are
    # order-sensitive; drift is declared (and property-tested) at 1e-9
    # rather than eliminated, since compensating the running mean would
    # abandon the well-studied error bound.
    __numeric__ = "reassoc-tolerant"

    def create(self) -> list[float]:
        return [0.0, 0.0, 0.0]  # [count, mean, M2]

    def add(self, accumulator: list[float], value: float) -> None:
        accumulator[0] += 1.0
        delta = value - accumulator[1]
        accumulator[1] += delta / accumulator[0]  # repro: numeric=reassoc - Welford
        accumulator[2] += delta * (value - accumulator[1])  # repro: numeric=reassoc - Welford

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        if len(values) < _NUMPY_FOLD_MIN:
            AggregateFunction.add_many(self, accumulator, values)
            return
        batch = np.asarray(values, dtype=float)
        n_b = float(batch.size)
        # The batched path intentionally folds in a different order than
        # scalar Welford: Chan's batch combine is *more* accurate, and the
        # scalar/batched equivalence suite bounds the divergence at the
        # declared 1e-9.
        mean_b = float(batch.mean())  # repro: numeric=reassoc - Chan combine
        m2_b = float(((batch - mean_b) ** 2).sum())  # repro: numeric=reassoc - Chan combine
        # Chan et al. pairwise combine — the same math as merge().
        n_a, mean_a, m2_a = accumulator
        n = n_a + n_b
        delta = mean_b - mean_a
        accumulator[0] = n
        accumulator[1] = mean_a + delta * n_b / n
        accumulator[2] = m2_a + m2_b + delta * delta * n_a * n_b / n

    def result(self, accumulator: list[float]) -> float:
        if accumulator[0] == 0:
            return math.nan
        return math.sqrt(accumulator[2] / accumulator[0])

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        n_a, mean_a, m2_a = accumulator
        n_b, mean_b, m2_b = other
        n = n_a + n_b
        if n == 0:
            return accumulator
        delta = mean_b - mean_a
        accumulator[0] = n
        accumulator[1] = mean_a + delta * n_b / n
        accumulator[2] = m2_a + m2_b + delta * delta * n_a * n_b / n
        return accumulator


class QuantileAggregate(AggregateFunction):
    """Exact quantile via a retained value list (sorted lazily at result)."""

    name = "quantile"
    error_model_kind = "rank"
    # Values are retained exactly; only the interpolated result carries a
    # couple of roundings, so the declared drift bound is 1e-9.
    __numeric__ = "reassoc-tolerant"

    def __init__(self, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0,1], got {q}")
        self.q = q
        self.name = f"p{int(round(q * 100))}"

    def create(self) -> list[float]:
        return []

    def add(self, accumulator: list[float], value: float) -> None:
        accumulator.append(value)

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        accumulator.extend(values)

    def result(self, accumulator: list[float]) -> float:
        if not accumulator:
            return math.nan
        ordered = sorted(accumulator)
        # Nearest-rank with linear interpolation (numpy 'linear' method).
        position = self.q * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        fraction = position - lower
        return ordered[lower] * (1 - fraction) + ordered[upper] * fraction

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        accumulator.extend(other)
        return accumulator


class MedianAggregate(QuantileAggregate):
    """Exact median (p50)."""

    __numeric__ = "reassoc-tolerant"  # interpolated midpoint, as QuantileAggregate

    def __init__(self) -> None:
        super().__init__(0.5)
        self.name = "median"


class DistinctCountAggregate(AggregateFunction):
    """Exact count of distinct values (values hashed into a set)."""

    name = "distinct"
    error_model_kind = "distinct"
    __numeric__ = "exact"  # set cardinality, no float arithmetic

    def create(self) -> set:
        return set()

    def add(self, accumulator: set, value: float) -> None:
        accumulator.add(value)

    def add_many(self, accumulator: set, values: list[float]) -> None:
        accumulator.update(values)

    def result(self, accumulator: set) -> float:
        return float(len(accumulator))

    def merge(self, accumulator: set, other: set) -> set:
        accumulator.update(other)
        return accumulator


class RangeAggregate(AggregateFunction):
    """Max - min of the window's values (price range, sensor swing)."""

    name = "range"
    error_model_kind = "extremum"
    __numeric__ = "exact"  # max - min is a single correctly-rounded op

    def create(self) -> list[float]:
        return [math.inf, -math.inf]

    def add(self, accumulator: list[float], value: float) -> None:
        if value < accumulator[0]:
            accumulator[0] = value
        if value > accumulator[1]:
            accumulator[1] = value

    def add_many(self, accumulator: list[float], values: list[float]) -> None:
        if not values:
            return
        smallest = min(values)
        largest = max(values)
        if smallest < accumulator[0]:
            accumulator[0] = smallest
        if largest > accumulator[1]:
            accumulator[1] = largest

    def result(self, accumulator: list[float]) -> float:
        if accumulator[0] == math.inf:
            return math.nan
        return accumulator[1] - accumulator[0]

    def merge(self, accumulator: list[float], other: list[float]) -> list[float]:
        accumulator[0] = min(accumulator[0], other[0])
        accumulator[1] = max(accumulator[1], other[1])
        return accumulator


class VarianceAggregate(StdDevAggregate):
    """Population variance via Welford/Chan (``M2 / count``, no sqrt).

    Shares :class:`StdDevAggregate`'s accumulator and merge; only the
    extraction differs, which is what the hypothesis property suite pins
    against :func:`statistics.pvariance` over arbitrary merge splits.
    """

    name = "variance"
    error_model_kind = "mean"
    __numeric__ = "reassoc-tolerant"

    def result(self, accumulator: list[float]) -> float:
        if accumulator[0] == 0:
            return math.nan
        return accumulator[2] / accumulator[0]


_REGISTRY: dict[str, type[AggregateFunction]] = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "mean": MeanAggregate,
    "avg": MeanAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "stddev": StdDevAggregate,
    "variance": VarianceAggregate,
    "var": VarianceAggregate,
    "median": MedianAggregate,
    "distinct": DistinctCountAggregate,
    "range": RangeAggregate,
}


def make_aggregate(name: str, **kwargs) -> AggregateFunction:
    """Build an aggregate by name (``"mean"``, ``"p95"``, ``"median"``...).

    Quantiles are addressed as ``"p<nn>"``, e.g. ``make_aggregate("p95")``.
    """
    if name.startswith("p") and name[1:].isdigit():
        return QuantileAggregate(int(name[1:]) / 100.0)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)} or p<nn>"
        ) from None
    return factory(**kwargs)
