"""Numerically sound accumulation primitives.

The quality contract the controller reports ("mean relative error <=
theta") is only as trustworthy as the floating-point arithmetic behind
it.  Three classic traps show up in streaming aggregation:

* **Naive summation drift** — folding n values with bare ``+=``
  accumulates up to ``n * ulp`` of relative error, and the *order* of the
  fold changes the answer (scalar loops vs numpy reductions vs merge
  trees all round differently).
* **Subtraction-based retraction** — sliding a window by subtracting the
  evicted value is O(1) but the compensation never returns: after k
  evictions the running sum has absorbed k extra roundings and can drift
  arbitrarily far from the true window sum (Tangwongsan et al. call this
  out as the classic invertible-aggregation trap).
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
* :class:`RetractableSum` — drift-bounded sliding subtraction: retraction
  is compensated *and* the sum is rebuilt from live values every
  ``resum_every`` retractions, so drift is bounded instead of unbounded.
* :func:`floats_close` — tolerance comparison with an absolute floor and
  the same infinity semantics as
  :func:`repro.streams.timebase.times_equal`.

The float-soundness lint rules R16-R20 (``docs/NUMERICS.md``) require
accumulation sites to route through these primitives or carry an explicit
``# repro: numeric=...`` waiver, and the NumSan sanitizer
(``run_pipeline(sanitize="numeric")``) verifies at runtime that every
aggregate stays within the drift bound its ``__numeric__`` annotation
declares.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable, Iterable, List

from repro.errors import ConfigurationError

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


def compensated_sum(values: Iterable[float]) -> float:
    """One-shot compensated sum of an iterable (convenience wrapper)."""
    accumulator = neumaier_create()
    neumaier_add_many(accumulator, values)
    return neumaier_total(accumulator)


class CompensatedSum:
    """Object wrapper over the ``[total, compensation]`` list accumulator.

    For call sites that want a named running sum rather than threading a
    bare list around (estimator feedback terms, long-lived counters).
    """

    __numeric__ = "compensated"
    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state = neumaier_create()

    def add(self, value: float) -> None:
        """Fold one value in with compensation."""
        neumaier_add(self._state, value)

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch in — bit-identical to repeated :meth:`add`."""
        neumaier_add_many(self._state, values)

    def merge(self, other: "CompensatedSum") -> None:
        """Absorb another compensated sum, carrying its compensation."""
        neumaier_merge(self._state, other._state)

    @property
    def value(self) -> float:
        """The compensated running total."""
        return neumaier_total(self._state)


class RetractableSum:
    """Sliding-window sum with drift-bounded subtraction.

    Subtracting evicted values keeps the window sum O(1) per slide, but
    every retraction adds a rounding that ordinary summation never takes
    back.  This wrapper makes the pattern sound (and is the only shape
    lint rule R17 accepts):

    * additions *and* retractions are compensated (a retraction is a
      compensated add of ``-value``), and
    * every ``resum_every`` retractions the sum is rebuilt exactly from
      the live values supplied by the ``resum`` callable, so accumulated
      retraction error is bounded by ``drift_bound`` instead of growing
      without limit.

    ``drift_bound`` is the declared *relative* drift the owner tolerates
    between re-summations; NumSan and the unit suite verify the bound
    empirically rather than trusting it.
    """

    __numeric__ = "compensated"
    __slots__ = ("_state", "_resum", "drift_bound", "resum_every",
                 "_retractions_since", "resum_count")

    def __init__(
        self,
        resum: Callable[[], Iterable[float]],
        drift_bound: float = 1e-9,
        resum_every: int = 64,
    ) -> None:
        if resum is None:  # defensive: a hook is mandatory, not optional
            raise ConfigurationError(
                "RetractableSum requires a resum callable returning the "
                "live values; drift-bounded retraction without a "
                "re-summation hook is exactly what R17 forbids"
            )
        if not drift_bound > 0.0:
            raise ConfigurationError(
                f"drift_bound must be positive, got {drift_bound}"
            )
        if resum_every < 1:
            raise ConfigurationError(
                f"resum_every must be >= 1, got {resum_every}"
            )
        self._state = neumaier_create()
        self._resum = resum
        self.drift_bound = drift_bound
        self.resum_every = resum_every
        self._retractions_since = 0
        self.resum_count = 0

    def add(self, value: float) -> None:
        """Fold one value in with compensation."""
        neumaier_add(self._state, value)

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a batch in — bit-identical to repeated :meth:`add`."""
        neumaier_add_many(self._state, values)

    def retract(self, value: float) -> None:
        """Remove one value; triggers a rebuild every ``resum_every``."""
        neumaier_add(self._state, -value)
        self._retractions_since += 1
        if self._retractions_since >= self.resum_every:
            self.resum_now()

    def resum_now(self) -> None:
        """Rebuild the compensated sum exactly from the live values."""
        state = neumaier_create()
        neumaier_add_many(state, self._resum())
        self._state = state
        self._retractions_since = 0
        self.resum_count += 1

    @property
    def value(self) -> float:
        """The current (drift-bounded) window sum."""
        return neumaier_total(self._state)


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


def ulp_distance(value: float, reference: float) -> float:
    """Distance in units-in-the-last-place of ``reference``.

    0.0 means bit-identical; 0.5 is a single correct rounding; large
    values mean genuine drift.  Non-finite mismatches return ``inf``.
    """
    if math.isnan(value) and math.isnan(reference):
        return 0.0
    if not math.isfinite(value) or not math.isfinite(reference):
        return 0.0 if value == reference else math.inf
    if value == reference:  # repro-lint: disable=R03 - ulp metric itself
        return 0.0
    return abs(value - reference) / math.ulp(max(abs(reference), 5e-324))


def drift_exceeded(old: float, new: float, threshold: float) -> bool:
    """Does replacing ``old`` by ``new`` exceed a relative-drift threshold?

    The revision machinery in :mod:`repro.engine.retraction` uses this to
    decide whether a late element moved a closed window's value enough to
    warrant emitting a correction.
    """
    return relative_drift(old, new) > threshold
