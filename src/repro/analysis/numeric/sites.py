"""Numeric inventory: which classes the float-soundness rules govern.

The inventory answers one question: *which classes accumulate floating
point state?*  Numeric lineage follows **inheritance**: every class
descending from one of the accumulator protocols is a numeric class,
because the protocol is what promises a ``create``/``add``/``merge``/
``result`` fold whose rounding behaviour matters.

Lineage roots (matched by name, transitively over project-defined
classes, so a subclass of a subclass is still covered — and so is a
test fixture subclassing a re-imported ``AggregateFunction`` that the
fixture project does not itself define):

* ``AggregateFunction`` — the window-fold protocol (sum, mean, ...);
* ``ErrorModel`` — quality estimators feeding the slack controller;
* ``SlackController`` — feedback controllers with EWMA state;
* ``DelaySample`` — delay-distribution trackers.

Plus a handful of explicitly named accumulator classes that do not sit
under any protocol (:data:`EXTRA_ROOTS`).  Exception types are excluded
— raising is not accumulating.

Every inventoried class must declare (or inherit) a ``__numeric__``
annotation (rule R19) naming its rounding discipline:

``"exact"``
    Results are exact or correctly rounded: integer arithmetic,
    comparisons, single float operations.
``"compensated"``
    Folds run through a compensated-summation primitive
    (:mod:`repro.core.numeric`); drift against the exact reference stays
    below ``1e-12`` relative.
``"reassoc-tolerant"``
    The class reassociates floating point on purpose (Welford/Chan
    combines, EWMAs, interpolated quantiles) and accepts drift up to
    ``1e-9`` relative.

An unknown ``__numeric__`` value is a **configuration error** (CLI exit
2), not a finding: the value states the class's rounding contract, so a
typo would silently state the wrong one.  This mirrors the linter's own
unknown-rule-id policy for suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.model import ClassInfo, Project
from repro.errors import ConfigurationError

#: Protocol base classes whose descendants form the numeric inventory.
LINEAGE_ROOTS: tuple[str, ...] = (
    "AggregateFunction",
    "ErrorModel",
    "SlackController",
    "DelaySample",
)

#: Accumulator classes inventoried by name (no shared protocol base).
EXTRA_ROOTS: tuple[str, ...] = (
    "ValueStatsTracker",
    "RateTracker",
)

#: Legal values of the ``__numeric__`` rounding-discipline annotation.
NUMERIC_VALUES: tuple[str, ...] = ("compensated", "reassoc-tolerant", "exact")

#: Fold entry points of the aggregate protocol: the methods rule R16
#: holds to the no-bare-accumulation contract.
FOLD_METHODS: frozenset[str] = frozenset({"add", "add_many", "merge"})

#: Base-class names marking exception types (excluded from the inventory).
_EXCEPTION_BASES: frozenset[str] = frozenset(
    {"Exception", "BaseException", "ValueError", "RuntimeError", "TypeError"}
)


@dataclass
class NumericClass:
    """One class of the numeric inventory."""

    name: str
    module: str  # display path of the defining file
    line: int
    #: The lineage root (or extra-root name) that pulled the class in.
    via: str
    #: Declared ``__numeric__`` value on *this* class (None when absent).
    declared: str | None = None
    declared_line: int = 0
    #: Resolved annotation after inheritance: the nearest declared value
    #: walking the ancestry, or None when no ancestor declares one.
    effective: str | None = None
    #: Name of the class the effective value was inherited from ("" when
    #: declared locally or unresolved).
    effective_origin: str = ""


@dataclass
class NumericInventory:
    """Every class the numeric rules govern, keyed by simple name."""

    classes: dict[str, NumericClass] = field(default_factory=dict)

    def class_in(self, name: str, module: str) -> NumericClass | None:
        """The inventory record for ``name`` if it is defined in ``module``."""
        record = self.classes.get(name)
        if record is not None and record.module == module:
            return record
        return None


def _is_exception(name: str, lineage: list[ClassInfo]) -> bool:
    if name.endswith("Error") or name.endswith("Exception"):
        return True
    return any(_EXCEPTION_BASES & set(info.base_names) for info in lineage)


def _lineage_origin(name: str, lineage: list[ClassInfo]) -> str | None:
    """The root that makes ``name`` a numeric class, or None.

    Matches raw base-name strings over the whole ancestry, so lineage
    survives both project-internal subclassing and bases imported from
    outside the scanned roots (a fixture subclassing ``AggregateFunction``
    without defining it).
    """
    if name in LINEAGE_ROOTS or name in EXTRA_ROOTS:
        return name
    for info in lineage:
        if info.name != name and info.name in EXTRA_ROOTS:
            return info.name
        hit = set(info.base_names) & set(LINEAGE_ROOTS)
        if hit:
            return sorted(hit)[0]
    return None


def _declared_numeric(info: ClassInfo) -> tuple[str | None, int]:
    """The literal ``__numeric__`` value and its line; ``("", line)`` for a
    non-literal assignment, ``(None, 0)`` when the class does not declare
    one."""
    for item in info.node.body if info.node is not None else ():
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__numeric__":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value, item.lineno
                return "", item.lineno  # non-literal: invalid
    return None, 0


def _validate(name: str, module: str, declared: str | None, line: int) -> None:
    if declared is None or declared in NUMERIC_VALUES:
        return
    valid = ", ".join(f'"{value}"' for value in NUMERIC_VALUES)
    if declared == "":
        raise ConfigurationError(
            f"{module}:{line}: class {name} assigns a non-literal "
            f"__numeric__; the annotation must be a string literal, one of "
            f"{valid}"
        )
    raise ConfigurationError(
        f"{module}:{line}: class {name} declares __numeric__ = "
        f"{declared!r}; unknown value (the annotation names the class's "
        f"rounding discipline), expected one of {valid}"
    )


def _effective(
    lineage: list[ClassInfo], declared: str | None
) -> tuple[str | None, str]:
    """Resolve the annotation through the ancestry (nearest wins)."""
    if declared is not None:
        return declared, ""
    for info in lineage[1:]:
        inherited, line = _declared_numeric(info)
        if inherited is not None:
            # Ancestors outside the inventory (mixins) still get their
            # values validated: an invalid inherited value is as wrong as
            # an invalid local one.
            _validate(info.name, info.display_path, inherited, line)
            return inherited, info.name
    return None, ""


def build_inventory(project: Project) -> NumericInventory:
    """Collect every lineage descendant from the project's class index.

    Raises :class:`~repro.errors.ConfigurationError` on unknown or
    non-literal ``__numeric__`` values (satisfying the hard-error policy
    that maps to CLI exit 2).
    """
    inventory = NumericInventory()
    for name in sorted(project.classes):
        info = project.classes[name]
        lineage = [info, *project.ancestors(name)]
        origin = _lineage_origin(name, lineage)
        if origin is None or info.node is None or _is_exception(name, lineage):
            continue
        declared, declared_line = _declared_numeric(info)
        _validate(name, info.display_path, declared, declared_line)
        effective, effective_origin = _effective(lineage, declared)
        inventory.classes[name] = NumericClass(
            name=name,
            module=info.display_path,
            line=info.line,
            via=origin,
            declared=declared,
            declared_line=declared_line,
            effective=effective,
            effective_origin=effective_origin,
        )
    return inventory


def inventory_for(project: Project) -> NumericInventory:
    """Per-project cached :func:`build_inventory` (rules share one walk)."""
    cached = getattr(project, "_numeric_inventory", None)
    if cached is None:
        cached = build_inventory(project)
        project._numeric_inventory = cached  # type: ignore[attr-defined]
    return cached
