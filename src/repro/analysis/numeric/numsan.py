"""NumSan: shadow-execution numeric sanitizer for window aggregates.

NumSan wraps an operator's :class:`~repro.engine.aggregates.AggregateFunction`
in a shadow that mirrors every fold into a retained value list.  Each time
the operator extracts a result, the shadow recomputes the answer from the
raw values through a *reference* path — :func:`math.fsum` (correctly
rounded) for sums, a two-pass algorithm for moments, and, sampled every
``exact_every``-th checked window, an exact :class:`fractions.Fraction`
evaluation — and measures the production result's drift:

* **relative drift** via :func:`repro.core.numeric.relative_drift`;
* **ULP distance** via :func:`repro.core.numeric.ulp_distance`.

The drift budget is *the class's own declared contract*: the
``__numeric__`` annotation that lint rule R19 enforces statically is what
NumSan verifies dynamically —

========================  =============================================
``"exact"``               the result must equal the reference bit for
                          bit (zero ULP)
``"compensated"``         relative drift <= 1e-12
``"reassoc-tolerant"``    relative drift <= 1e-9
========================  =============================================

A second moment (``variance``, ``stddev``) cannot hold a flat budget on
ill-conditioned windows: with condition number ``kappa = sqrt(1 + mean^2 /
variance)``, the updating algorithms (Welford's add, Chan's combine) carry
a first-order relative error of ``n * eps * kappa`` (Chan, Golub & LeVeque
1983) where the textbook sum of squares carries ``n * eps * kappa^2``.
NumSan computes ``kappa`` from the mirror values and holds those
aggregates to ``max(declared bound, n * eps * kappa)`` — a correct Welford
passes at any conditioning, a sum of squares still fails.

A violation raises :class:`~repro.errors.SanitizerError` at the result
call site.  Aggregates with no reference implementation (a user's own
:class:`~repro.engine.aggregates.AggregateFunction`) are recorded as
*unchecked* rather than silently passed.  The sanitizer never changes
emitted results: the production accumulator runs untouched next to the
mirror, and ``result`` returns the production value verbatim.

Enable per run with ``run_pipeline(..., sanitize="numeric")``; overhead
is budgeted at off < 2%, on < 25% (measured in
``benchmarks/test_numsan_overhead.py``).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from repro.core.numeric import relative_drift, ulp_distance
from repro.engine.aggregates import AggregateFunction
from repro.errors import ConfigurationError, SanitizerError
from repro.obs.trace import NULL_TRACER, Tracer

#: Drift budget (relative) per declared discipline; ``"exact"`` is
#: special-cased to bit-equality rather than a tolerance.
DRIFT_BOUNDS: dict[str, float] = {
    "exact": 0.0,
    "compensated": 1e-12,
    "reassoc-tolerant": 1e-9,
}

_QUANTILE_NAME = re.compile(r"^p\d+$")

#: Aggregates whose drift budget widens with the window's conditioning.
_SECOND_MOMENTS = frozenset({"stddev", "variance", "var"})


@dataclass
class AggregateDriftStats:
    """Observed drift of one aggregate over a sanitized run."""

    aggregate: str
    discipline: str
    #: Widest budget a checked window was held to: the declared one,
    #: unless a second moment's conditioning widened it.
    bound: float
    windows_checked: int = 0
    #: Checked windows whose reference was the exact ``Fraction`` path.
    windows_exact: int = 0
    #: Windows skipped: empty, containing non-finite values, or produced
    #: by an aggregate with no reference implementation.
    windows_skipped: int = 0
    max_rel_drift: float = 0.0
    max_ulp: float = 0.0


@dataclass
class NumSanReport:
    """Drift statistics of one sanitized run, keyed by aggregate name."""

    stats: dict[str, AggregateDriftStats] = field(default_factory=dict)

    def max_rel_drift(self) -> float:
        """Largest relative drift observed across all aggregates."""
        return max(
            (entry.max_rel_drift for entry in self.stats.values()), default=0.0
        )

    def windows_checked(self) -> int:
        """Total reference comparisons performed."""
        return sum(entry.windows_checked for entry in self.stats.values())

    def windows_skipped(self) -> int:
        """Total windows that could not be checked."""
        return sum(entry.windows_skipped for entry in self.stats.values())


class NumSan:
    """Shadow-execution coordinator: wraps aggregates, collects the report.

    Args:
        tracer: Receives one ``numeric.drift`` record per checked window
            (detail-mode recorders only) and a ``sanitizer.finding``
            record just before a violation raises.
        exact_every: Every N-th checked window of a sum/mean/moment
            aggregate is verified against the exact ``Fraction``
            reference instead of the ``fsum`` fast path (1 disables
            sampling and makes every check exact; the fast path is still
            correctly rounded for plain sums).
    """

    def __init__(self, tracer: Tracer = NULL_TRACER, exact_every: int = 16) -> None:
        if exact_every < 1:
            raise ConfigurationError(
                f"exact_every must be >= 1, got {exact_every}"
            )
        self.tracer = tracer
        self.exact_every = exact_every
        self.report = NumSanReport()
        #: Simulated-time stamp of the element in flight, maintained by
        #: the operator proxy so shadow findings carry the run clock.
        self.sim_time = float("-inf")

    def shadow_aggregate(self, aggregate: AggregateFunction) -> "_ShadowAggregate":
        """Wrap one aggregate; resolves and validates its declared budget."""
        declared = getattr(type(aggregate), "__numeric__", None)
        if declared is None:
            raise ConfigurationError(
                f"cannot sanitize {type(aggregate).__name__}: the class "
                f"declares no __numeric__ annotation (lint rule R19), so "
                f"NumSan has no drift budget to hold it to"
            )
        if declared not in DRIFT_BOUNDS:
            valid = ", ".join(f'"{value}"' for value in DRIFT_BOUNDS)
            raise ConfigurationError(
                f"cannot sanitize {type(aggregate).__name__}: unknown "
                f"__numeric__ value {declared!r}; expected one of {valid}"
            )
        return _ShadowAggregate(aggregate, self, declared)

    def guard_operator(self, operator: Any) -> "NumSanOperator":
        """Wrap ``operator`` so its aggregate folds run shadow-checked."""
        return NumSanOperator(operator, self)

    def fail(self, message: str) -> None:
        """Trace and raise one drift violation."""
        if self.tracer.enabled:
            self.tracer.sanitizer_finding(self.sim_time, "drift", message)
        raise SanitizerError(f"NumSan[drift] {message}")


class _ShadowAggregate(AggregateFunction):
    """Checked mirror of one aggregate.

    The shadow accumulator is ``[inner_accumulator, values, n_folded]``:
    the mirror list retains the raw window values for the reference
    recomputation at ``result`` time, and the production fold replays
    *lazily* from the mirror.  Scalar ``add`` only appends; the pending
    suffix is folded into the inner accumulator — in arrival order, via
    the exact same ``inner.add`` calls an unsanitized run would make — at
    the next ``add_many``/``merge``/``result`` boundary.  Results stay
    bit-identical to the unsanitized run while the per-element hot path
    (one call per element per *open* window) shrinks to a single list
    append, which is what keeps the sanitizer inside its overhead budget.
    """

    def __init__(
        self, inner: AggregateFunction, san: NumSan, discipline: str
    ) -> None:
        self.inner = inner
        self.san = san
        self.discipline = discipline
        self.bound = DRIFT_BOUNDS[discipline]
        self.name = inner.name
        self.error_model_kind = inner.error_model_kind
        self._stats = san.report.stats.setdefault(
            inner.name,
            AggregateDriftStats(
                aggregate=inner.name, discipline=discipline, bound=self.bound
            ),
        )
        # Bound once: the lazy replay runs per element, so a saved
        # attribute hop per fold is measurable on the overhead budget.
        self._inner_add = inner.add
        self._inner_add_many = inner.add_many
        self._inner_merge = inner.merge
        self._inner_result = inner.result
        self._checked = 0
        self._quantile = getattr(inner, "q", None) if (
            inner.name in ("median", "quantile")
            or _QUANTILE_NAME.match(inner.name)
        ) else None

    def create(self) -> list:
        """Production accumulator, mirror value list, replay cursor."""
        return [self.inner.create(), [], 0]

    def add(self, accumulator: list, value: float) -> None:
        """Mirror the value; the production fold replays lazily."""
        accumulator[1].append(value)

    def add_many(self, accumulator: list, values: list[float]) -> None:
        """Bulk fold through the inner ``add_many`` (order preserved).

        The pending scalar suffix folds first so the inner accumulator
        sees the identical ``add``/``add_many`` call sequence an
        unsanitized run would — bulk paths may legitimately reassociate
        (stddev's Chan combine), so the shadow must not turn scalar adds
        into bulk ones or vice versa.
        """
        self._replay(accumulator)
        self._inner_add_many(accumulator[0], values)
        accumulator[1].extend(values)
        accumulator[2] = len(accumulator[1])

    def merge(self, accumulator: list, other: list) -> list:
        """Merge production accumulators and concatenate the mirrors."""
        self._replay(accumulator)
        self._replay(other)
        self._inner_merge(accumulator[0], other[0])
        accumulator[1].extend(other[1])
        accumulator[2] = len(accumulator[1])
        return accumulator

    def result(self, accumulator: list) -> float:
        """Extract the production result, then hold it to the reference."""
        self._replay(accumulator)
        value = self._inner_result(accumulator[0])
        self._check(value, accumulator[1])
        return value

    def _replay(self, accumulator: list) -> None:
        """Fold the un-replayed mirror suffix into the inner accumulator."""
        values = accumulator[1]
        folded = accumulator[2]
        if folded < len(values):
            inner_add = self._inner_add
            inner_accumulator = accumulator[0]
            for value in values[folded:]:
                inner_add(inner_accumulator, value)
            accumulator[2] = len(values)

    def describe(self) -> str:
        """Label the wrapped aggregate as sanitized."""
        return f"numsan({self.inner.describe()})"

    # ------------------------------------------------------------------ #
    # reference computation

    def _check(self, value: float, values: list[float]) -> None:
        stats = self._stats
        if not values or not all(map(math.isfinite, values)):
            stats.windows_skipped += 1
            return
        use_exact = (self._checked + 1) % self.san.exact_every == 0
        reference = self._reference(values, use_exact)
        if reference is None:
            stats.windows_skipped += 1
            return
        self._checked += 1
        rel = relative_drift(value, reference)
        ulp = ulp_distance(value, reference)
        stats.windows_checked += 1
        if use_exact:
            stats.windows_exact += 1
        if rel > stats.max_rel_drift:
            stats.max_rel_drift = rel
        if ulp > stats.max_ulp:
            stats.max_ulp = ulp
        san = self.san
        if san.tracer.enabled:
            san.tracer.numeric_drift(
                san.sim_time,
                self.name,
                self.discipline,
                value,
                reference,
                rel,
                ulp,
                use_exact,
            )
        if self.discipline == "exact":
            # Exact disciplines promise correctly-rounded results: the
            # comparison is deliberately bitwise (R03 covers timestamps;
            # this is the sanitizer enforcing a bit-level contract).
            if value != reference and not (  # repro-lint: disable=R03
                math.isnan(value) and math.isnan(reference)
            ):
                san.fail(
                    f"aggregate '{self.name}' declares __numeric__ = "
                    f'"exact" but result {value!r} differs from the exact '
                    f"reference {reference!r} ({ulp:g} ulp) over "
                    f"{len(values)} value(s)"
                )
            return
        bound = self._budget(values, reference)
        if bound > stats.bound:
            stats.bound = bound
        if rel > bound:
            kind = "declared" if bound == self.bound else "conditioning-scaled"
            san.fail(
                f"aggregate '{self.name}' (__numeric__ = "
                f'"{self.discipline}") drifted {rel:.3e} relative '
                f"({ulp:g} ulp) from the reference {reference!r}, "
                f"exceeding the {kind} bound {bound:g} over "
                f"{len(values)} value(s)"
            )

    def _budget(self, values: list[float], reference: float) -> float:
        """Drift budget of one window: declared, or conditioning-scaled."""
        if self.name not in _SECOND_MOMENTS or not reference > 0.0:
            return self.bound
        deviation = reference if self.name == "stddev" else math.sqrt(reference)
        mean = math.fsum(values) / len(values)
        kappa = math.hypot(1.0, mean / deviation)
        return max(self.bound, len(values) * sys.float_info.epsilon * kappa)

    def _reference(self, values: list[float], exact: bool) -> float | None:
        name = self.name
        n = len(values)
        if name == "count":
            return float(n)
        if name == "distinct":
            return float(len(set(values)))
        if name == "min":
            return min(values)
        if name == "max":
            return max(values)
        if name == "range":
            return max(values) - min(values)
        if name == "sum":
            if exact:
                return float(sum(map(Fraction, values), Fraction(0)))
            return math.fsum(values)
        if name in ("mean", "avg"):
            if exact:
                return float(sum(map(Fraction, values), Fraction(0)) / n)
            return math.fsum(values) / n
        if name in _SECOND_MOMENTS:
            variance = self._variance_reference(values, exact)
            if name == "stddev":
                return math.sqrt(variance)
            return variance
        if self._quantile is not None:
            return self._quantile_reference(values, self._quantile)
        return None

    @staticmethod
    def _variance_reference(values: list[float], exact: bool) -> float:
        n = len(values)
        if exact:
            exact_values = [Fraction(value) for value in values]
            mean = sum(exact_values, Fraction(0)) / n
            m2 = sum(((value - mean) ** 2 for value in exact_values), Fraction(0))
            return float(m2 / n)
        mean = math.fsum(values) / n
        m2 = math.fsum((value - mean) ** 2 for value in values)
        return m2 / n

    @staticmethod
    def _quantile_reference(values: list[float], q: float) -> float:
        ordered = sorted(values)
        position = q * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        fraction = position - lower
        return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


class NumSanOperator:
    """Operator proxy that runs the aggregate shadow-checked.

    Swaps the wrapped operator's ``aggregate`` attribute for the shadow
    (the window operator routes the assignment to whichever store holds
    its window state), forwards the operator protocol, and keeps the
    sanitizer's simulated clock current so findings and trace records
    carry the run's time base.  Any other attribute falls through to the
    wrapped operator.
    """

    def __init__(self, inner: Any, san: NumSan) -> None:
        self.inner = inner
        self.san = san
        aggregate = getattr(inner, "aggregate", None)
        if aggregate is None:
            raise ConfigurationError(
                f"cannot sanitize {type(inner).__name__}: the operator "
                f"exposes no 'aggregate' attribute for NumSan to shadow"
            )
        shadow = san.shadow_aggregate(aggregate)
        self.shadow = shadow
        inner.aggregate = shadow

    @property
    def report(self) -> NumSanReport:
        """The sanitizer's drift report (shared with the NumSan instance)."""
        return self.san.report

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to the sanitizer and the wrapped operator."""
        self.san.tracer = tracer
        set_inner_tracer = getattr(self.inner, "set_tracer", None)
        if set_inner_tracer is not None:
            set_inner_tracer(tracer)

    def _advance_clock(self, element: Any) -> None:
        arrival = getattr(element, "arrival_time", None)
        if arrival is not None and arrival > self.san.sim_time:
            self.san.sim_time = arrival

    def process(self, element: Any) -> list:
        """Forward one element, keeping the sanitizer clock current."""
        self._advance_clock(element)
        return self.inner.process(element)

    def process_many(self, elements: list) -> list:
        """Forward a chunk, keeping the sanitizer clock current."""
        if elements:
            self._advance_clock(elements[-1])
        return self.inner.process_many(elements)

    def finish(self) -> list:
        """Finish the wrapped operator (flushed windows are checked too)."""
        return self.inner.finish()

    def __getattr__(self, name: str) -> Any:
        """Fall through to the wrapped operator (public attributes only)."""
        if name.startswith("_"):
            raise AttributeError(name)
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def __repr__(self) -> str:
        return f"NumSanOperator({self.inner!r})"


def sanitize_operator(
    operator: Any, tracer: Tracer = NULL_TRACER, exact_every: int = 16
) -> NumSanOperator:
    """Wrap ``operator``'s aggregate in the NumSan shadow.

    Convenience for driving an operator by hand; ``run_pipeline`` applies
    the same wrapping when called with ``sanitize="numeric"``.
    """
    return NumSan(tracer=tracer, exact_every=exact_every).guard_operator(operator)
