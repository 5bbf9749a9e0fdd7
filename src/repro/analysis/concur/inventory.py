"""Shared-state inventory: which classes the concurrency rules govern.

The inventory answers one question: *which state can be reached from the
shared execution layer?*  Starting from the root classes (the shared
store/buffer, the partial-aggregate tree, the sorting buffer, the metrics
registry and the trace recorder), it walks the project's symbol table:

* an attribute whose *kind* resolves to a project class pulls that class
  in (``self._tree = _SliceTree(...)`` reaches ``_SliceTree``);
* a constructor call anywhere in a reachable class's methods pulls the
  constructed class in (``self._queries[qid] = _SharedQuery(...)`` and
  ``WindowResult(...)`` both count — aliasing through locals does not
  hide the edge);
* an ``__init__`` assignment from a typed parameter pulls the parameter's
  class in (``self.handler = handler`` with ``handler: DisorderHandler``);
* base classes of reachable classes are reachable (their attributes live
  on the same instances).

Exception types are excluded — raising is not sharing.  Every inventoried
class must carry a ``__concurrency__`` ownership annotation (rule R14)
declaring its contract:

``"guarded"``
    The class owns a ``threading.Lock``/``RLock`` and every mutation of
    its state happens while holding it (rule R11 enforces this
    lexically).
``"single-thread"``
    Instances are only ever driven by one thread at a time — either a
    single owner, or callers serialize access externally (e.g. the slice
    tree is only touched under the shared store's lock).  RaceSan checks
    the claim dynamically.
``"immutable"``
    Instances never change after construction; sharing them is free.

Module globals defined in files that declare inventoried classes are
tracked too: writing one through a ``global`` statement from an
inventoried class is an R11 finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# Bound at call time (``propagation.analysis_for``): the analysis
# packages form an import cycle and this module can be reached while
# ``propagation`` is still mid-initialization.
from repro.analysis.dataflow import propagation
from repro.analysis.dataflow.symbols import ClassSymbol, SymbolTable
from repro.analysis.lint.model import Project

#: Classes whose reachable state forms the shared-state inventory.
#: ``PartialAggregateTree`` is accepted as an alias of the internal
#: ``_SliceTree`` so forks that rename the tree stay covered.
ROOT_CLASSES: tuple[str, ...] = (
    "SharedSliceStore",
    "SharedAQKBuffer",
    "PartialAggregateTree",
    "_SliceTree",
    "WindowAggregateOperator",
    "_PerWindowStore",
    "_SliceStore",
    "SortingBuffer",
    "ShardSession",
    "MetricsRegistry",
    "TraceRecorder",
)

#: Legal values of the ``__concurrency__`` ownership annotation.
OWNERSHIP_VALUES: tuple[str, ...] = ("guarded", "single-thread", "immutable")

#: Constructor names recognized as lock factories.
LOCK_FACTORIES: frozenset[str] = frozenset({"Lock", "RLock"})

#: Base-class names marking exception types (excluded from the inventory).
_EXCEPTION_BASES: frozenset[str] = frozenset(
    {"Exception", "BaseException", "ValueError", "RuntimeError", "TypeError"}
)


@dataclass
class InventoriedClass:
    """One class of the shared-state inventory."""

    name: str
    module: str  # display path of the defining file
    line: int
    #: How the class entered the inventory: "" for roots, else the name of
    #: the reachable class that references it.
    via: str
    #: Instance attribute names seen in ``__slots__`` or ``self.x = ...``.
    attrs: tuple[str, ...] = ()
    #: Lock-typed attributes: name -> "Lock" | "RLock".
    locks: dict[str, str] = field(default_factory=dict)
    #: Declared ``__concurrency__`` value (None when missing; the raw
    #: string even when invalid, so R14 can distinguish the two).
    declared: str | None = None
    declared_line: int = 0


@dataclass
class SharedStateInventory:
    """Every class and module global the concurrency rules govern."""

    classes: dict[str, InventoriedClass] = field(default_factory=dict)
    #: (module display path, global name) -> definition line.
    globals: dict[tuple[str, str], int] = field(default_factory=dict)

    def class_in(self, name: str, module: str) -> InventoriedClass | None:
        """The inventory record for ``name`` if it is defined in ``module``."""
        record = self.classes.get(name)
        if record is not None and record.module == module:
            return record
        return None

    def module_globals(self, module: str) -> set[str]:
        """Tracked global names of one module."""
        return {name for (mod, name) in self.globals if mod == module}


def _is_exception(table: SymbolTable, name: str) -> bool:
    if name.endswith("Error") or name.endswith("Exception"):
        return True
    for symbol in table.ancestry(name):
        if _EXCEPTION_BASES & set(symbol.base_names):
            return True
    return False


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _class_neighbours(table: SymbolTable, symbol: ClassSymbol) -> set[str]:
    """Project classes one reachability step away from ``symbol``."""
    found: set[str] = set()
    # Attribute kinds: annotations and ``self.x = Klass()`` seeds.  Kinds
    # that do not resolve to a project class (type aliases, builtins) are
    # not reachability edges.
    found.update(
        kind for kind in symbol.attr_kinds.values() if kind in table.classes
    )
    for method in symbol.methods.values():
        for node in ast.walk(method.node):
            # Any constructor call in a method body (stored, appended,
            # returned — all of it escapes into reachable state or results).
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in table.classes and name != symbol.name:
                    found.add(name)
            # ``self.x = param`` where the parameter is class-typed.
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                kind = method.param_kinds.get(node.value.id, "")
                if kind and kind in table.classes:
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            found.add(kind)
    # Base classes share the instance layout.
    found.update(base for base in symbol.base_names if base in table.classes)
    return {name for name in found if not _is_exception(table, name)}


def _class_attrs(symbol: ClassSymbol) -> tuple[str, ...]:
    attrs: set[str] = set()
    for item in symbol.node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    value = item.value
                    if isinstance(value, (ast.Tuple, ast.List)):
                        attrs.update(
                            elt.value
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        )
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            attrs.add(item.target.id)
    for method in symbol.methods.values():
        for node in ast.walk(method.node):
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and (target := getattr(node, "target", None) or node.targets[0])
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return tuple(sorted(attrs))


def _class_locks(symbol: ClassSymbol) -> dict[str, str]:
    """Lock-typed ``self.x`` attributes: name -> Lock/RLock kind."""
    locks: dict[str, str] = {}
    for method in symbol.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            factory = _call_name(node.value)
            if factory not in LOCK_FACTORIES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    locks[target.attr] = factory
    return locks


def _declared_ownership(symbol: ClassSymbol) -> tuple[str | None, int]:
    for item in symbol.node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(item, ast.Assign):
            targets, value = item.targets, item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            targets, value = [item.target], item.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__concurrency__":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value, item.lineno
                return "", item.lineno  # non-literal: invalid
    return None, 0


def build_inventory(project: Project) -> SharedStateInventory:
    """Walk reachability from the root classes over the symbol table."""
    table = propagation.analysis_for(project).table
    inventory = SharedStateInventory()
    queue: list[tuple[str, str]] = [
        (root, "") for root in ROOT_CLASSES if root in table.classes
    ]
    while queue:
        name, via = queue.pop(0)
        if name in inventory.classes:
            continue
        symbol = table.classes[name]
        declared, declared_line = _declared_ownership(symbol)
        inventory.classes[name] = InventoriedClass(
            name=name,
            module=symbol.module,
            line=symbol.node.lineno,
            via=via,
            attrs=_class_attrs(symbol),
            locks=_class_locks(symbol),
            declared=declared,
            declared_line=declared_line,
        )
        for neighbour in sorted(_class_neighbours(table, symbol)):
            if neighbour not in inventory.classes:
                queue.append((neighbour, name))
    # Module globals of every file defining an inventoried class.
    modules = {record.module for record in inventory.classes.values()}
    for source in project.files:
        if source.display_path not in modules:
            continue
        for item in source.tree.body:
            targets = (
                item.targets
                if isinstance(item, ast.Assign)
                else [item.target]
                if isinstance(item, ast.AnnAssign)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    inventory.globals[(source.display_path, target.id)] = item.lineno
    return inventory


def inventory_for(project: Project) -> SharedStateInventory:
    """Per-project cached :func:`build_inventory` (rules share one walk)."""
    cached = getattr(project, "_concur_inventory", None)
    if cached is None:
        cached = build_inventory(project)
        project._concur_inventory = cached  # type: ignore[attr-defined]
    return cached
