"""Numeric-safety analysis: the float-soundness lint and its inventory.

Out-of-order execution makes floating point *order-sensitive* code a
correctness hazard: the same window folded along a different arrival
order produces a different float, and equality tests on accumulated
values flap.  This package checks statically that the engine's numeric
discipline holds:

* :mod:`repro.analysis.numeric.sites` infers the **numeric inventory**:
  every class descending from the accumulator protocols
  (``AggregateFunction``, ``ErrorModel``, ``SlackController``,
  ``DelaySample`` plus the explicit accumulator classes) and its
  declared ``__numeric__`` rounding discipline.  Unknown annotation
  values are a hard configuration error (CLI exit 2).
* :mod:`repro.analysis.numeric.rules` turns the inventory into lint
  rules **R16** and **R18-R20** (no bare ``+=`` float folds, no ``==``
  on accumulated floats, mandatory ``__numeric__`` annotations, no mixed
  scalar/numpy summation orders), reported through the standard
  repro-lint reporters and suppressions.

The arithmetic the rules point at lives in :mod:`repro.core.numeric`
(Neumaier compensated summation, ``floats_close``); see
``docs/NUMERICS.md`` for the error models.
"""

from __future__ import annotations

# The lint package composes its catalog from ``numeric.rules``, whose
# rules subclass the lint ``Rule``: load it first so ``rules`` always
# initializes inside it, whichever module a caller imports first.
import repro.analysis.lint  # noqa: F401
from repro.analysis.numeric.sites import (
    EXTRA_ROOTS,
    LINEAGE_ROOTS,
    NUMERIC_VALUES,
    NumericInventory,
    inventory_for,
)
from repro.analysis.numeric.rules import NUMERIC_RULES, WAIVER_VALUES

__all__ = [
    "EXTRA_ROOTS",
    "LINEAGE_ROOTS",
    "NUMERIC_RULES",
    "NUMERIC_VALUES",
    "NumericInventory",
    "WAIVER_VALUES",
    "inventory_for",
]
