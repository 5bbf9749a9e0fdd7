"""The repro-lint rule catalog (R01–R04).

Each rule is a class with an ``id``, a one-line ``summary`` and a
``check`` method yielding :class:`~repro.analysis.lint.model.Finding`
objects.  The class docstring is the rule's long documentation, printed by
``python -m repro.analysis.lint --list-rules``.

Rules are engine-specific by design: they encode invariants of *this*
codebase (simulated time, scalar/batched parity, frozen stream elements)
rather than generic style.  See ``docs/ANALYSIS.md`` for the catalog with
examples and suppression guidance.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Iterator

from repro.analysis.lint.model import ClassInfo, Finding, Project, SourceFile

#: Attribute names that denote event/arrival-domain instants in this
#: codebase (see R03); suffix matches extend the list to private fields.
TIME_ATTRIBUTES = {
    "event_time",
    "arrival_time",
    "emit_time",
    "frontier",
    "timestamp",
    "watermark",
    "end",
    "start",
}

_TIME_SUFFIXES = ("_time", "_frontier", "frontier_value", "_arrival", "_watermark")

#: Fields of :class:`repro.streams.element.StreamElement` that uniquely
#: identify it; assigning to them anywhere is a mutation of a frozen
#: element (R04).  ``value``/``key`` are too generic to match on.
ELEMENT_FIELDS = {"event_time", "arrival_time", "seq"}


class Rule(ABC):
    """Base class of all lint rules."""

    id: str = "R00"
    summary: str = ""

    @abstractmethod
    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        """Yield findings for one source file."""

    def _finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.id,
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an expression (``a.b.c``), else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


class NoWallClockRule(Rule):
    """R01 — no wall-clock reads or unseeded randomness in simulated-time code.

    The engine (``repro/engine``) and the adaptive core (``repro/core``)
    run on *simulated* time: the processing clock is the arrival timestamp
    of the element being processed.  Reading the host clock
    (``time.time``, ``datetime.now``, ...) or drawing from global /
    unseeded RNGs (``random.*``, ``numpy.random.<dist>``,
    ``default_rng()`` with no seed) makes runs irreproducible and couples
    results to host speed.  Wall-clock *measurement* (throughput numbers)
    is allowed only with an inline suppression justifying it.
    """

    id = "R01"
    summary = "no wall-clock time or nondeterministic RNG in engine/core"

    _TIME_FUNCS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
    }
    _DATETIME_FUNCS = {"now", "utcnow", "today"}
    _NUMPY_RANDOM_OK = {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
    }

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if not source.engine_scoped:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Attribute):
                if (
                    isinstance(node, ast.Call)
                    and _dotted(node.func).endswith("default_rng")
                    and not node.args
                    and not node.keywords
                ):
                    yield self._finding(
                        source,
                        node,
                        "unseeded default_rng() — pass a seed or thread a "
                        "Generator from the caller",
                    )
                continue
            dotted = _dotted(node)
            root, _, leaf = dotted.partition(".")
            if root == "time" and node.attr in self._TIME_FUNCS:
                yield self._finding(
                    source,
                    node,
                    f"wall-clock read {dotted}() in simulated-time code — "
                    "derive time from element arrival timestamps",
                )
            elif dotted.split(".")[-2:-1] == ["datetime"] or root == "datetime":
                if node.attr in self._DATETIME_FUNCS:
                    yield self._finding(
                        source,
                        node,
                        f"wall-clock read {dotted}() in simulated-time code",
                    )
            elif root == "random":
                yield self._finding(
                    source,
                    node,
                    f"global random.{node.attr} — thread a seeded "
                    "numpy.random.Generator through the call path instead",
                )
            elif root in {"np", "numpy"} and leaf.startswith("random."):
                member = dotted.split(".")[-1]
                if member not in self._NUMPY_RANDOM_OK:
                    yield self._finding(
                        source,
                        node,
                        f"global numpy RNG {dotted} — use an explicit "
                        "seeded Generator",
                    )
            elif dotted in {"os.urandom", "uuid.uuid4", "uuid.uuid1"} or root == "secrets":
                yield self._finding(
                    source, node, f"nondeterministic source {dotted} in engine code"
                )


class BatchParityRule(Rule):
    """R02 — scalar and batched entry points must evolve together.

    ``Operator.process_many`` / ``DisorderHandler.offer_many`` /
    ``AggregateFunction.add_many`` are required to be *exactly* equivalent
    to looping the scalar method.  Two shapes of drift are flagged:

    * a class overrides the batched method without overriding the scalar
      one in the same class — the inherited scalar path and the new batched
      path can silently diverge;
    * a class overrides the scalar method but inherits a **specialized**
      batched implementation from a concrete ancestor — that inherited bulk
      path replays the *ancestor's* scalar semantics, not the override's.
      (Inheriting the abstract base's generic loop is always safe: it calls
      the override.)
    """

    id = "R02"
    summary = (
        "scalar/batched method parity on Operator, DisorderHandler, "
        "and AggregateFunction"
    )

    _PAIRS = (
        ("offer", "offer_many"),
        ("process", "process_many"),
        ("add", "add_many"),
    )
    _ABSTRACT_BASES = {
        "Operator",
        "DisorderHandler",
        "AggregateFunction",
        "ABC",
        "object",
        "Protocol",
    }
    _LINEAGE_ROOTS = {"Operator", "DisorderHandler", "AggregateFunction"}

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = project.classes.get(node.name)
            if info is None or info.display_path != source.display_path:
                continue
            if node.name in self._ABSTRACT_BASES:
                continue
            ancestors = project.ancestors(node.name)
            lineage = {node.name} | {a.name for a in ancestors}
            if not lineage & self._LINEAGE_ROOTS and not any(
                base in self._LINEAGE_ROOTS for base in info.base_names
            ):
                continue
            for scalar, batched in self._PAIRS:
                if batched in info.methods and scalar not in info.methods:
                    yield self._finding(
                        source,
                        node,
                        f"{node.name} overrides {batched} without overriding "
                        f"{scalar}: the inherited scalar path can diverge "
                        "from the new batched path",
                    )
                if scalar in info.methods and batched not in info.methods:
                    culprit = self._specialized_ancestor(ancestors, batched)
                    if culprit is not None:
                        yield self._finding(
                            source,
                            node,
                            f"{node.name} overrides {scalar} but inherits the "
                            f"specialized {batched} of {culprit.name}, which "
                            "replays the ancestor's scalar semantics — "
                            f"override {batched} too",
                        )

    def _specialized_ancestor(
        self, ancestors: list[ClassInfo], batched: str
    ) -> ClassInfo | None:
        for ancestor in ancestors:
            if ancestor.name in self._ABSTRACT_BASES:
                return None
            if batched in ancestor.methods:
                return ancestor
        return None


class NoFloatTimeEqualityRule(Rule):
    """R03 — never compare float timestamps with ``==`` / ``!=``.

    Event/arrival times, frontiers and window bounds are floats computed
    through different arithmetic paths; exact equality is a rounding
    accident.  Use ordering predicates, or
    :func:`repro.streams.timebase.times_equal` when equality semantics are
    genuinely needed.  Comparisons against the ``float("inf")`` /
    ``float("-inf")`` sentinels and ``None`` are exempt — those values are
    exact.
    """

    id = "R03"
    summary = "no ==/!= on float timestamps (use tolerance helpers)"

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                for this, other in ((left, right), (right, left)):
                    if self._is_time_expr(this) and not self._is_exempt(other):
                        label = _dotted(this) or "timestamp"
                        yield self._finding(
                            source,
                            node,
                            f"exact float comparison on {label} — use an "
                            "ordering predicate or times_equal()",
                        )
                        break

    @staticmethod
    def _is_time_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            return False
        return name in TIME_ATTRIBUTES or name.endswith(_TIME_SUFFIXES)

    @staticmethod
    def _is_exempt(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return NoFloatTimeEqualityRule._is_exempt(node.operand)
        if isinstance(node, ast.Call) and _dotted(node.func) == "float":
            if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
                return str(node.args[0].value).lstrip("+-") in {"inf", "Infinity"}
        dotted = _dotted(node)
        return dotted in {"math.inf", "np.inf", "numpy.inf", "math.nan"}


class FrozenElementRule(Rule):
    """R04 — stream elements are immutable after construction.

    :class:`repro.streams.element.StreamElement` is a frozen dataclass;
    derived elements must be produced with ``with_arrival``/``replace``.
    Assigning (or deleting) the identifying fields ``event_time``,
    ``arrival_time`` or ``seq`` through *any* attribute reference is
    flagged — even on objects the analyser cannot prove to be elements —
    because sharing those field names with a mutable object invites
    exactly the aliasing bugs the freeze exists to prevent.
    """

    id = "R04"
    summary = "no mutation of StreamElement timestamp/seq fields"

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        element_spans = [
            (node.lineno, max(node.lineno, getattr(node, "end_lineno", node.lineno)))
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef) and node.name == "StreamElement"
        ]
        for node in ast.walk(source.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            else:
                continue
            if any(lo <= node.lineno <= hi for lo, hi in element_spans):
                continue
            for target in targets:
                for leaf in self._flatten(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and leaf.attr in ELEMENT_FIELDS
                    ):
                        yield self._finding(
                            source,
                            node,
                            f"assignment to .{leaf.attr} — stream elements "
                            "are frozen; build a new element with "
                            "with_arrival()/dataclasses.replace()",
                        )

    @staticmethod
    def _flatten(node: ast.expr) -> Iterator[ast.expr]:
        if isinstance(node, (ast.Tuple, ast.List)):
            for item in node.elts:
                yield from FrozenElementRule._flatten(item)
        else:
            yield node


#: The per-file syntactic rules (R01-R04).  The whole-program dataflow
#: rules (R06-R10) live in :mod:`repro.analysis.dataflow.rules`; the
#: combined catalog is composed in :mod:`repro.analysis.lint`.
CORE_RULES: tuple[Rule, ...] = (
    NoWallClockRule(),
    BatchParityRule(),
    NoFloatTimeEqualityRule(),
    FrozenElementRule(),
)

#: Backwards-compatible alias (pre-dataflow name for the catalog).
ALL_RULES = CORE_RULES
