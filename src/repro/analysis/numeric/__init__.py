"""Numeric-safety analysis: float-soundness lint and the NumSan sanitizer.

Out-of-order execution makes floating point *order-sensitive* code a
correctness hazard: the same window folded along a different arrival
order produces a different float, late corrections subtract drift into
retained state, and equality tests on accumulated values flap.  This
package proves — statically and dynamically — that the engine's numeric
discipline holds:

* :mod:`repro.analysis.numeric.sites` infers the **numeric inventory**:
  every class descending from the accumulator protocols
  (``AggregateFunction``, ``ErrorModel``, ``SlackController``,
  ``DelaySample`` plus the explicit accumulator classes), its classified
  accumulation sites, and its declared ``__numeric__`` rounding
  discipline.  Unknown annotation values are a hard configuration error
  (CLI exit 2).
* :mod:`repro.analysis.numeric.rules` turns the inventory into lint
  rules **R16-R20** (no bare ``+=`` float folds, no subtraction-based
  retraction, no ``==`` on accumulated floats, mandatory ``__numeric__``
  annotations, no mixed scalar/numpy summation orders), reported through
  the standard repro-lint reporters and suppressions.
* :mod:`repro.analysis.numeric.numsan` is **NumSan**, a shadow-execution
  sanitizer enabled via ``run_pipeline(sanitize="numeric")``: every
  window fold is re-evaluated against an exact reference
  (:func:`math.fsum` / :class:`fractions.Fraction`) and the observed
  drift must stay within the discipline the class declared.

The arithmetic the rules point at lives in :mod:`repro.core.numeric`
(Neumaier compensated summation, ``floats_close``, the drift-bounded
``RetractableSum``); see ``docs/NUMERICS.md`` for the error models.
"""

from __future__ import annotations

# ``sites`` must be imported first: it pulls in the dataflow/lint import
# cycle, during which ``repro.analysis.lint`` imports ``numeric.rules`` —
# importing rules here first would leave it partially initialized when the
# lint package asks for NUMERIC_RULES.
from repro.analysis.numeric.sites import (
    EXTRA_ROOTS,
    LINEAGE_ROOTS,
    NUMERIC_VALUES,
    NumericInventory,
    inventory_for,
)
from repro.analysis.numeric.rules import NUMERIC_RULES, WAIVER_VALUES
from repro.analysis.numeric.numsan import (
    AggregateDriftStats,
    NumSan,
    NumSanOperator,
    NumSanReport,
    sanitize_operator,
)

__all__ = [
    "AggregateDriftStats",
    "EXTRA_ROOTS",
    "LINEAGE_ROOTS",
    "NUMERIC_RULES",
    "NUMERIC_VALUES",
    "NumSan",
    "NumSanOperator",
    "NumSanReport",
    "NumericInventory",
    "WAIVER_VALUES",
    "inventory_for",
    "sanitize_operator",
]
