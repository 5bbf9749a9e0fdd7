"""Float-soundness lint rules R16-R20 over the numeric inventory.

========  ============================================================
R16       no bare ``+=`` float accumulation inside an inventoried
          aggregate's ``add``/``add_many``/``merge``; folds route
          through a compensated primitive (:mod:`repro.core.numeric`)
          or carry an explicit ``# repro: numeric=reassoc`` waiver
R17       no subtraction-based sliding-window retraction: ``-=`` on
          retained state drifts without bound; use
          :class:`~repro.core.numeric.RetractableSum` (declared drift
          bound + periodic re-summation) or waive integer state with
          ``# repro: numeric=exact``
R18       no ``==``/``!=`` on accumulated floats (extends R03 beyond
          timestamps); compare through
          :func:`~repro.core.numeric.floats_close`
R19       every inventoried numeric class declares (or inherits)
          ``__numeric__ = "compensated" | "reassoc-tolerant" | "exact"``
R20       scalar/batched twins of one fold must not mix summation
          orders: numpy reductions in ``add_many`` while ``add`` folds
          in Python order break bit-identical parity
========  ============================================================

Waivers are source comments of the form::

    x += v  # repro: numeric=reassoc - why reassociation is acceptable
    n -= k  # repro: numeric=exact - integer state, no rounding

``reassoc`` concedes the reassociation (drift must still fit the class's
declared budget — NumSan checks); ``exact`` asserts the flagged
statement performs exact arithmetic (integers, set sizes, cursors).
Unknown waiver values are a hard configuration error (CLI exit 2), like
unknown rule ids in ``# repro-lint:`` suppressions: a typo'd waiver
must not silently keep a finding alive *or* silently discharge it.

An unknown ``__numeric__`` *value* is likewise a configuration error —
raised by the inventory itself (see
:mod:`repro.analysis.numeric.sites`); R19 only reports classes that
declare nothing at all.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint.model import Finding, Project, SourceFile, _comments
from repro.analysis.lint.rules import Rule, _dotted
from repro.analysis.numeric.sites import (
    FOLD_METHODS,
    NUMERIC_VALUES,
    NumericClass,
    inventory_for,
)
from repro.errors import ConfigurationError

#: Legal values of a numeric waiver comment (see the module docstring).
WAIVER_VALUES: tuple[str, ...] = ("reassoc", "exact")

_WAIVER = re.compile(r"#\s*repro:\s*numeric=(\S+)")

#: Attribute names recognized as numpy (or numpy-style) reductions.
_NUMPY_REDUCTIONS: frozenset[str] = frozenset(
    {"sum", "mean", "std", "var", "prod", "dot"}
)

#: Terminal name segments that mark an expression as accumulated float
#: state for R18 (``self._sum``, ``total``, ``m2`` ...).
_ACCUMULATOR_SEGMENTS: frozenset[str] = frozenset(
    {"total", "compensation", "m2"}
)
_ACCUMULATOR_SUFFIXES: tuple[str, ...] = (
    "_sum",
    "_total",
    "_m2",
    "_mean",
    "_var",
    "_ewma",
    "_compensation",
)


def waivers(source: SourceFile) -> dict[int, str]:
    """``# repro: numeric=<value>`` waivers by line, cached per file.

    Parsed off real COMMENT tokens (a docstring *describing* the waiver
    syntax neither waives anything nor errors).  Unknown values raise
    :class:`~repro.errors.ConfigurationError` — the hard-error policy
    shared with unknown suppression ids.
    """
    cached = getattr(source, "_numeric_waivers", None)
    if cached is None:
        cached = {}
        for number, comment in _comments(source.text):
            if "repro:" not in comment:
                continue
            match = _WAIVER.search(comment)
            if match is None:
                continue
            value = match.group(1)
            if value not in WAIVER_VALUES:
                valid = ", ".join(f'"{v}"' for v in WAIVER_VALUES)
                raise ConfigurationError(
                    f"{source.display_path}:{number}: unknown numeric waiver "
                    f"value {value!r}; expected one of {valid} "
                    f"(# repro: numeric=<value> - <justification>)"
                )
            cached[number] = value
        source._numeric_waivers = cached  # type: ignore[attr-defined]
    return cached


def _exempt_operand(node: ast.expr) -> bool:
    """Operands whose accumulation cannot lose precision: integers,
    integral float literals (counts like ``1.0``), ``len(...)`` and
    ``float()`` of those, and their negations."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, int):
            return True
        return isinstance(value, float) and value.is_integer()
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _exempt_operand(node.operand)
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name == "len":
            return True
        if name == "float" and node.args:
            return all(_exempt_operand(arg) for arg in node.args)
    return False


def _state_target(node: ast.expr) -> bool:
    """Attribute/subscript targets hold retained state; bare locals do
    not survive the statement and cannot accumulate drift across calls."""
    return isinstance(node, (ast.Attribute, ast.Subscript))


def _inventoried_classes(
    source: SourceFile, project: Project
) -> Iterator[tuple[ast.ClassDef, NumericClass]]:
    inventory = inventory_for(project)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        record = inventory.class_in(node.name, source.display_path)
        if record is not None:
            yield node, record


def _fold_methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name in FOLD_METHODS:
            yield item


class BareAccumulationRule(Rule):
    """R16 — no bare ``+=`` float folds in aggregate entry points.

    ``total += value`` evaluated left-to-right is the textbook
    catastrophic-cancellation trap: summing ``[1e16, 1.0, -1e16]`` loses
    the ``1.0`` entirely.  Inside an inventoried class's
    ``add``/``add_many``/``merge``, accumulation must go through the
    compensated primitives (``neumaier_add`` and friends carry the
    rounding error forward) — or carry a waiver conceding the
    reassociation, which NumSan then holds to the class's declared
    drift budget.  Classes declaring ``__numeric__ = "exact"`` are
    exempt: they promise no float accumulation at all, and NumSan
    verifies that promise dynamically at zero ULP.
    """

    id = "R16"
    summary = (
        "no bare += float accumulation in aggregate add/add_many/merge; "
        "use repro.core.numeric or waive with # repro: numeric=reassoc"
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        waived = waivers(source)
        for class_node, record in _inventoried_classes(source, project):
            if record.effective == "exact":
                continue
            for method in _fold_methods(class_node):
                yield from self._check_method(source, class_node, method, waived)

    def _check_method(
        self,
        source: SourceFile,
        class_node: ast.ClassDef,
        method: ast.FunctionDef,
        waived: dict[int, str],
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            target: ast.expr | None = None
            operand: ast.expr | None = None
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target, operand = node.target, node.value
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, (ast.Add, ast.Sub))
            ):
                # ``x[i] = x[i] + v`` is the same fold spelled long-hand.
                # Compare unparsed text: ast.dump would disagree on the
                # Store-vs-Load expression context.
                spelled = ast.unparse(node.targets[0])
                for side in (node.value.left, node.value.right):
                    if ast.unparse(side) == spelled:
                        target = node.targets[0]
                        operand = (
                            node.value.right
                            if side is node.value.left
                            else node.value.left
                        )
                        break
            if target is None or operand is None:
                continue
            if not _state_target(target):
                continue
            if _exempt_operand(operand):
                continue
            if node.lineno in waived:
                continue
            yield self._finding(
                source,
                node,
                f"{class_node.name}.{method.name} accumulates floats with a "
                f"bare fold; route through repro.core.numeric "
                f"(neumaier_add/neumaier_add_many/neumaier_merge or "
                f"CompensatedSum), or concede reassociation with "
                f"'# repro: numeric=reassoc - <why>'",
            )


class SubtractiveRetractionRule(Rule):
    """R17 — no subtraction-based retraction from retained float state.

    Evicting a window by subtracting its elements back out
    (``total -= old``) leaves residual rounding error that *grows without
    bound* as windows slide — the classic subtract-to-evict drift bug.
    Retraction must go through
    :class:`~repro.core.numeric.RetractableSum`, which carries a declared
    drift bound and re-sums from source every N retractions, or be waived
    as exact integer bookkeeping (``# repro: numeric=exact``).  Applies
    to all engine/core files and to inventoried classes anywhere.
    """

    id = "R17"
    summary = (
        "no subtraction-based retraction from retained state; use "
        "RetractableSum (drift bound + periodic re-summation) or waive "
        "integer state with # repro: numeric=exact"
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        # The sanctioned implementation itself is exempt: RetractableSum's
        # internals are exactly the code this rule points everyone at.
        if source.path.as_posix().endswith("repro/core/numeric.py"):
            return
        waived = waivers(source)
        if source.engine_scoped:
            yield from self._scan(source, source.tree, waived)
        else:
            for class_node, _record in _inventoried_classes(source, project):
                yield from self._scan(source, class_node, waived)

    def _scan(
        self, source: SourceFile, root: ast.AST, waived: dict[int, str]
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, ast.Sub):
                continue
            if not _state_target(node.target):
                continue
            if _exempt_operand(node.value):
                continue
            if node.lineno in waived:
                continue
            yield self._finding(
                source,
                node,
                "subtraction-based retraction from retained state drifts "
                "without bound; use repro.core.numeric.RetractableSum "
                "(declared drift bound, periodic re-summation) or waive "
                "exact integer bookkeeping with "
                "'# repro: numeric=exact - <why>'",
            )


class AccumulatedFloatEqualityRule(Rule):
    """R18 — no ``==``/``!=`` on accumulated floats.

    R03 bans float equality on *timestamps*; this extends the ban to
    accumulated values: two folds of the same data along different
    orders differ in the last ULPs, so equality on ``self._sum``,
    ``accumulator[...]`` or ``aggregate.result(...)`` is
    order-dependent.  Compare through
    :func:`repro.core.numeric.floats_close`.  Comparisons against
    integer literals, ``None`` and ``math.inf``/``math.nan`` sentinels
    are exempt — those test *state*, not float identity.
    """

    id = "R18"
    summary = (
        "no ==/!= on accumulated floats; compare through "
        "repro.core.numeric.floats_close"
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if not any(self._accumulated(expr) for expr in operands):
                continue
            if any(self._exempt_comparand(expr) for expr in operands):
                continue
            yield self._finding(
                source,
                node,
                "==/!= on an accumulated float is summation-order "
                "dependent; compare through "
                "repro.core.numeric.floats_close(a, b) (or against an "
                "integer/sentinel, which is exempt)",
            )

    @staticmethod
    def _accumulated(node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return "acc" in node.value.id
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr == "result"
        terminal = ""
        if isinstance(node, ast.Name):
            terminal = node.id
        elif isinstance(node, ast.Attribute):
            terminal = node.attr
        if not terminal:
            return False
        if terminal in _ACCUMULATOR_SEGMENTS:
            return True
        return terminal.endswith(_ACCUMULATOR_SUFFIXES)

    @staticmethod
    def _exempt_comparand(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            value = node.value
            # Integer literals test counts; float literals (even 0.0)
            # compare magnitudes and stay flagged.
            return value is None or isinstance(value, int)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return AccumulatedFloatEqualityRule._exempt_comparand(node.operand)
        return _dotted(node) in ("math.inf", "math.nan")


class NumericAnnotationRule(Rule):
    """R19 — every inventoried numeric class declares its discipline.

    The ``__numeric__`` class attribute is a machine-checked contract:
    ``"compensated"`` (folds through the compensated primitives; NumSan
    budget 1e-12 relative),
    ``"reassoc-tolerant"`` (deliberate reassociation; budget 1e-9) or
    ``"exact"`` (no float accumulation; zero-ULP budget).  Inheriting
    the annotation from a base class is accepted — protocol-wide
    defaults like ``ErrorModel.__numeric__ = "exact"`` cover stateless
    subclasses.  Unknown values never reach this rule: the inventory
    hard-errors on them (CLI exit 2).
    """

    id = "R19"
    summary = (
        'inventoried numeric classes declare or inherit __numeric__ = '
        '"compensated" | "reassoc-tolerant" | "exact"'
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        valid = ", ".join(f'"{value}"' for value in NUMERIC_VALUES)
        for class_node, record in _inventoried_classes(source, project):
            if record.effective is not None:
                continue
            origin = f"numeric lineage via {record.via}"
            yield self._finding(
                source,
                class_node,
                f"class {class_node.name} accumulates numeric state "
                f"({origin}) but neither declares nor inherits a "
                f"__numeric__ annotation; add __numeric__ = one of {valid}",
            )


class MixedSummationOrderRule(Rule):
    """R20 — scalar and batched twins of one fold share a summation order.

    ``add_many`` reducing with numpy (pairwise summation) while ``add``
    folds element-by-element in Python produces *different* floats for
    the same data — the equivalence suites then chase phantom diffs.
    Either both paths go through the shared compensated primitive
    (bit-identical by construction) or the batched shortcut carries a
    ``# repro: numeric=reassoc`` waiver and the class declares
    ``reassoc-tolerant``.
    """

    id = "R20"
    summary = (
        "scalar add and batched add_many must not mix python/numpy "
        "summation orders; share the compensated primitive or waive"
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        waived = waivers(source)
        for class_node, record in _inventoried_classes(source, project):
            methods = {
                item.name: item
                for item in class_node.body
                if isinstance(item, ast.FunctionDef)
            }
            if "add" not in methods or "add_many" not in methods:
                continue
            if self._uses_numpy(methods["add"]):
                continue  # both sides batched: no order split
            for node in ast.walk(methods["add_many"]):
                reduction = self._numpy_reduction(node)
                if reduction is None:
                    continue
                if node.lineno in waived:
                    continue
                yield self._finding(
                    source,
                    node,
                    f"{class_node.name}.add_many reduces with "
                    f"{reduction}() while {class_node.name}.add folds in "
                    f"Python order; the twins diverge bit-for-bit — share "
                    f"the compensated primitive "
                    f"(repro.core.numeric.neumaier_add_many) or concede "
                    f"with '# repro: numeric=reassoc - <why>'",
                )

    @staticmethod
    def _uses_numpy(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            root = _dotted(node) if isinstance(node, ast.Attribute) else ""
            if root.split(".", 1)[0] in ("np", "numpy"):
                return True
        return False

    @staticmethod
    def _numpy_reduction(node: ast.AST) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _NUMPY_REDUCTIONS:
            return None
        dotted = _dotted(func)
        root = dotted.split(".", 1)[0]
        if root in ("np", "numpy"):
            return dotted
        # Method-call form: ``batch.sum()``, ``((b - m) ** 2).sum()``.
        return func.attr


NUMERIC_RULES: tuple[Rule, ...] = (
    BareAccumulationRule(),
    SubtractiveRetractionRule(),
    AccumulatedFloatEqualityRule(),
    NumericAnnotationRule(),
    MixedSummationOrderRule(),
)
