"""Numerically sound accumulation primitives.

The quality contract the controller reports ("mean relative error <=
theta") is only as trustworthy as the floating-point arithmetic behind
it.  Two classic traps show up in streaming aggregation:

* **Naive summation drift** — folding n values with bare ``+=``
  accumulates up to ``n * ulp`` of relative error, and the *order* of the
  fold changes the answer (scalar loops vs numpy reductions vs merge
  trees all round differently).
* **Float equality** — ``==`` on two independently accumulated results is
  a coin flip; comparisons need an explicit tolerance with an absolute
  floor near zero.

This module provides the sanctioned primitives, one per trap:

* :func:`neumaier_add` / :func:`neumaier_add_many` /
  :func:`neumaier_merge` / :func:`neumaier_total` — compensated
  (Neumaier/Kahan-Babuska) summation over a plain-list accumulator
  ``[total, compensation]``.  Error is O(1) ulp regardless of length,
  and ``add_many`` is the *same* fold as repeated ``add``, so scalar and
  batched paths agree bit-for-bit.
* :func:`floats_close` — tolerance comparison with an absolute floor and
  the same infinity semantics as
  :func:`repro.streams.timebase.times_equal`.

The float-soundness lint rules R16 and R18-R20 (``docs/NUMERICS.md``) require
accumulation sites to route through these primitives or carry an explicit
``# repro: numeric=...`` waiver.  The engine never subtracts an evicted
value from a running sum: window stores merge partials and never
retract, so there is no subtract-on-evict primitive.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Iterable, List

#: Default relative tolerance for :func:`floats_close` — one part in 1e9,
#: matching ``TIME_EQ_RTOL`` so value and time comparisons are consistent.
FLOAT_EQ_RTOL = 1e-9

#: Absolute floor for :func:`floats_close`: accumulated values that should
#: be zero typically land within a few ulp of it, far below this floor.
FLOAT_EQ_ATOL = 1e-12

#: Denominator floor for :func:`relative_drift` near zero references.
_DRIFT_EPS = 1e-12


# --------------------------------------------------------------------- #
# compensated summation over list accumulators


def neumaier_create() -> List[float]:
    """A fresh compensated accumulator: ``[total, compensation]``."""
    return [0.0, 0.0]


def neumaier_add(accumulator: List[float], value: float) -> None:
    """Fold one value into ``[total, compensation]`` with compensation.

    Neumaier's variant of Kahan summation: the rounding error of each
    addition is recovered exactly (Fast2Sum with the magnitude test) and
    parked in ``accumulator[1]`` instead of being lost.  Unlike plain
    Kahan it also stays accurate when ``value`` exceeds the running total.
    """
    total = accumulator[0]
    fold = total + value
    if abs(total) >= abs(value):
        accumulator[1] += (total - fold) + value
    else:
        accumulator[1] += (value - fold) + total
    accumulator[0] = fold


def neumaier_add_many(accumulator: List[float], values: Iterable[float]) -> None:
    """Fold a batch into ``[total, compensation]``.

    Performs *exactly* the same sequence of operations as calling
    :func:`neumaier_add` per value (locals are hoisted for speed only), so
    scalar and batched folds agree bit-for-bit — this is what lets the
    engine pin ``add_many`` to ``add`` with equality instead of tolerance.
    """
    total = accumulator[0]
    compensation = accumulator[1]
    for value in values:
        fold = total + value
        if abs(total) >= abs(value):
            compensation += (total - fold) + value
        else:
            compensation += (value - fold) + total
        total = fold
    accumulator[0] = total
    accumulator[1] = compensation


def neumaier_merge(accumulator: List[float], other: List[float]) -> None:
    """Merge compensated partial ``other`` into ``accumulator`` in place.

    The partial total is folded with compensation and the partial
    compensation terms are carried over, so merge trees (slice folds and
    cached partial aggregates) keep the O(1)-ulp error bound.
    """
    neumaier_add(accumulator, other[0])
    accumulator[1] += other[1]


def neumaier_total(accumulator: List[float]) -> float:
    """The compensated sum: running total plus parked compensation."""
    return accumulator[0] + accumulator[1]


# --------------------------------------------------------------------- #
# comparison and drift measurement


def as_real(value: Any) -> Any:
    """``value`` when it is an ``int`` or ``float``, ``float(value)`` for any
    other real number — ``numpy.int64`` / ``numpy.float32``, what indexing
    an array yields — and ``None`` for everything else, ``bool`` included.

    Hot callers test ``type(value) is float`` themselves before calling.
    """
    kind = type(value)
    if kind is float or kind is int:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return None


def floats_close(
    a: float,
    b: float,
    # Unlike times_equal's, these tolerances are dimensionless ratios /
    # value-domain floors, not second-valued durations.
    rtol: float = FLOAT_EQ_RTOL,
    atol: float = FLOAT_EQ_ATOL,
) -> bool:
    """Tolerance equality for accumulated floats (lint rule R18's target).

    Same shape as :func:`repro.streams.timebase.times_equal`: exact
    equality short-circuits (equal infinities compare close), distinct
    infinities and NaN are never close, and the absolute floor ``atol``
    covers values that should be zero but carry accumulation residue.
    """
    if a == b:  # repro-lint: disable=R03 - this IS the tolerance helper
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def relative_drift(
    value: float, reference: float, eps: float = _DRIFT_EPS
) -> float:
    """|value - reference| / max(|reference|, eps); NaN-aware.

    Two NaNs agree (0.0); a NaN against a number is full drift (inf).
    The epsilon floor keeps near-zero references from inflating honest
    absolute error into a huge relative one.
    :func:`repro.engine.aggregate_op.relative_error` routes its numeric
    branch through this (with its wider 1e-9 floor) so quality scoring
    and drift accounting share one definition.
    """
    if math.isnan(value) and math.isnan(reference):
        return 0.0
    if math.isnan(value) or math.isnan(reference):
        return math.inf
    if value == reference:  # repro-lint: disable=R03 - drift metric itself
        return 0.0
    return abs(value - reference) / max(abs(reference), eps)
