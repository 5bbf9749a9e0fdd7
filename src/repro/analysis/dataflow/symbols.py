"""Project-wide symbol table for the time-domain analysis.

Built once per lint run from the parsed :class:`~repro.analysis.lint.model.
Project`: every function/method becomes a :class:`FunctionSymbol` carrying
per-parameter and return :class:`~repro.analysis.dataflow.lattice.Domain`
cells, every class a :class:`ClassSymbol` carrying attribute domain cells
and attribute *kinds* (which project class an attribute holds — how the
analysis knows ``self._front.advance(...)`` lands on ``MonotoneFrontier``).

Seeding order per cell: explicit ``Annotated[float, EventTime]``-style
markers (or their ``EventTimeStamp``/... aliases) win; the naming
conventions of :mod:`~repro.analysis.dataflow.lattice` seed the rest; the
fixed-point propagation pass joins inferred evidence on top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.model import Project, SourceFile
from repro.analysis.dataflow.lattice import (
    Domain,
    MARKER_DOMAINS,
    domain_of_name,
    join,
)

#: Built-in knowledge about the engine's time-bearing types: (class,
#: member) → domain.  The annotation sweep makes most of these derivable
#: from source, but baking them in keeps the analysis correct on partial
#: projects (single fixture files) and on unannotated forks.
KNOWN_MEMBER_DOMAINS: dict[tuple[str, str], Domain] = {
    ("StreamElement", "event_time"): Domain.EVENT_TIME,
    ("StreamElement", "arrival_time"): Domain.PROC_TIME,
    ("StreamElement", "delay"): Domain.DURATION,
    ("StreamElement", "seq"): Domain.COUNT,
    ("StreamElement", "value"): Domain.UNTIMED,
    ("MonotoneFrontier", "value"): Domain.EVENT_TIME,
    ("MonotoneFrontier", "advance"): Domain.EVENT_TIME,
    ("MonotoneFrontier", "close"): Domain.EVENT_TIME,
    ("EventTimeFrontier", "value"): Domain.EVENT_TIME,
    ("EventTimeFrontier", "observe"): Domain.EVENT_TIME,
    ("EventTimeFrontier", "observe_many"): Domain.EVENT_TIME,
    ("EventTimeFrontier", "count"): Domain.COUNT,
    ("SimulatedClock", "now"): Domain.PROC_TIME,
    ("SimulatedClock", "advance_to"): Domain.PROC_TIME,
    ("SimulatedClock", "advance_by"): Domain.PROC_TIME,
    ("SortingBuffer", "peek_event_time"): Domain.EVENT_TIME,
    ("SortingBuffer", "max_size"): Domain.COUNT,
    ("SortingBuffer", "released_total"): Domain.COUNT,
    ("Window", "start"): Domain.EVENT_TIME,
    ("Window", "end"): Domain.EVENT_TIME,
    ("Window", "size"): Domain.DURATION,
    ("WindowResult", "emit_time"): Domain.PROC_TIME,
    ("WindowResult", "latency"): Domain.DURATION,
    ("WindowResult", "count"): Domain.COUNT,
    ("PairMatch", "first_time"): Domain.EVENT_TIME,
    ("PairMatch", "second_time"): Domain.EVENT_TIME,
    ("PairMatch", "emit_time"): Domain.PROC_TIME,
    ("PairMatch", "latency"): Domain.DURATION,
    ("SlackSample", "arrival_time"): Domain.PROC_TIME,
    ("SlackSample", "slack"): Domain.DURATION,
    ("SlackSample", "frontier"): Domain.EVENT_TIME,
    ("SlackSample", "buffered"): Domain.COUNT,
    ("DisorderHandler", "frontier"): Domain.EVENT_TIME,
    ("DisorderHandler", "current_slack"): Domain.DURATION,
    ("DisorderHandler", "released_count"): Domain.COUNT,
    ("DisorderHandler", "buffered_count"): Domain.COUNT,
    ("DisorderHandler", "max_buffered_count"): Domain.COUNT,
}

#: Classes whose instances are sanctioned monotone frontier stores (R07).
FRONTIER_STORE_KINDS = {"MonotoneFrontier", "EventTimeFrontier"}

#: Internal fields of the frontier stores; writing them from outside the
#: store bypasses the monotonicity clamp (R07 "raw frontier write").
FRONTIER_STORE_FIELDS = {"_value", "_max_event_time"}


def annotation_domain(annotation: ast.expr | None) -> Domain:
    """Domain declared by an annotation node, ``BOTTOM`` when unmarked.

    Recognizes the alias names (``EventTimeStamp``, ``ArrivalTimeStamp``,
    ``DurationS``), the explicit ``Annotated[float, Marker]`` spelling, and
    dotted variants (``timebase.EventTimeStamp``).
    """
    if annotation is None:
        return Domain.BOTTOM
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return Domain.BOTTOM
    if isinstance(annotation, ast.Name):
        return MARKER_DOMAINS.get(annotation.id, Domain.BOTTOM)
    if isinstance(annotation, ast.Attribute):
        return MARKER_DOMAINS.get(annotation.attr, Domain.BOTTOM)
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else ""
        )
        if head_name == "Annotated" and isinstance(annotation.slice, ast.Tuple):
            for meta in annotation.slice.elts[1:]:
                domain = annotation_domain(meta)
                if domain is not Domain.BOTTOM:
                    return domain
    return Domain.BOTTOM


def annotation_is_bare_float(annotation: ast.expr | None) -> bool:
    """True when the annotation is exactly ``float`` (R10's trigger)."""
    return isinstance(annotation, ast.Name) and annotation.id == "float"


def annotation_kind(annotation: ast.expr | None) -> str:
    """Project-class name an annotation binds the value to (``""`` if none).

    ``element: StreamElement`` types the local; ``Optional``/``| None``
    unions are looked through so ``DisorderHandler | None`` still resolves.
    """
    if annotation is None:
        return ""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return annotation_kind(ast.parse(annotation.value, mode="eval").body)
        except SyntaxError:
            return ""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            kind = annotation_kind(side)
            if kind and kind != "None":
                return kind
        return ""
    if isinstance(annotation, ast.Subscript):
        head = annotation_kind(annotation.value)
        if head == "Optional":
            return annotation_kind(annotation.slice)
        return ""
    return ""


@dataclass
class FunctionSymbol:
    """One function or method with its domain cells."""

    qualname: str  # module:Class.method or module:function
    module: str
    source: SourceFile
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str = ""  # enclosing class, "" for module-level functions
    param_names: list[str] = field(default_factory=list)
    param_domains: dict[str, Domain] = field(default_factory=dict)
    param_kinds: dict[str, str] = field(default_factory=dict)
    return_domain: Domain = Domain.BOTTOM
    return_kind: str = ""
    is_property: bool = False
    is_public: bool = False

    @property
    def simple_name(self) -> str:
        return self.node.name

    def join_param(self, name: str, domain: Domain) -> bool:
        """Join evidence into a parameter cell; True when it changed."""
        before = self.param_domains.get(name, Domain.BOTTOM)
        after = join(before, domain)
        if after is not before:
            self.param_domains[name] = after
            return True
        return False

    def join_return(self, domain: Domain) -> bool:
        """Join evidence into the return cell; True when it changed."""
        after = join(self.return_domain, domain)
        if after is not self.return_domain:
            self.return_domain = after
            return True
        return False


@dataclass
class ClassSymbol:
    """One class with attribute domain/kind cells."""

    name: str
    module: str
    source: SourceFile
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    attr_domains: dict[str, Domain] = field(default_factory=dict)
    attr_kinds: dict[str, str] = field(default_factory=dict)  # attr -> class name
    methods: dict[str, FunctionSymbol] = field(default_factory=dict)

    def join_attr(self, name: str, domain: Domain) -> bool:
        """Join evidence into an attribute cell; True when it changed."""
        before = self.attr_domains.get(name, Domain.BOTTOM)
        after = join(before, domain)
        if after is not before:
            self.attr_domains[name] = after
            return True
        return False


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


class SymbolTable:
    """Every function and class of the project, with seeded domain cells."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[str, FunctionSymbol] = {}  # qualname -> symbol
        self.classes: dict[str, ClassSymbol] = {}  # simple name -> symbol
        #: module-level function name -> qualname per module, for call
        #: resolution of plain-name calls.
        self.module_functions: dict[str, dict[str, str]] = {}
        #: per-module import aliases: local name -> imported simple name.
        self.imports: dict[str, dict[str, str]] = {}
        for source in project.files:
            self._index_file(source)
        self._seed_known_members()

    # ------------------------------------------------------------------ #
    # construction

    @staticmethod
    def module_of(source: SourceFile) -> str:
        return source.display_path

    def _index_file(self, source: SourceFile) -> None:
        module = self.module_of(source)
        self.module_functions.setdefault(module, {})
        imports = self.imports.setdefault(module, {})
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = self._function_symbol(source, node, class_name="")
                self.functions[symbol.qualname] = symbol
                self.module_functions[module][node.name] = symbol.qualname
            elif isinstance(node, ast.ClassDef):
                self._index_class(source, node)

    def _index_class(self, source: SourceFile, node: ast.ClassDef) -> None:
        module = self.module_of(source)
        base_names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                base_names.append(base.id)
            elif isinstance(base, ast.Attribute):
                base_names.append(base.attr)
            elif isinstance(base, ast.Subscript) and isinstance(
                base.value, ast.Name
            ):
                base_names.append(base.value.id)
        symbol = ClassSymbol(
            name=node.name,
            module=module,
            source=source,
            node=node,
            base_names=base_names,
        )
        # Duplicate simple names across files (fixture stubs shadowing the
        # real engine classes) keep the first definition — consistent with
        # the lint Project index, which drops ambiguous names entirely.
        self.classes.setdefault(node.name, symbol)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._function_symbol(source, item, class_name=node.name)
                self.functions[method.qualname] = method
                symbol.methods[item.name] = method
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                # Dataclass-style field declarations.
                domain = annotation_domain(item.annotation)
                if domain is Domain.BOTTOM:
                    domain = domain_of_name(item.target.id)
                if domain is not Domain.BOTTOM:
                    symbol.attr_domains[item.target.id] = domain
                kind = annotation_kind(item.annotation)
                if kind in self.classes or kind in FRONTIER_STORE_KINDS:
                    symbol.attr_kinds[item.target.id] = kind
        self._seed_init_attrs(symbol)

    def _function_symbol(
        self,
        source: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str,
    ) -> FunctionSymbol:
        module = self.module_of(source)
        scope = f"{class_name}." if class_name else ""
        symbol = FunctionSymbol(
            qualname=f"{module}:{scope}{node.name}",
            module=module,
            source=source,
            node=node,
            class_name=class_name,
            is_property="property" in _decorator_names(node),
            is_public=not node.name.startswith("_") or node.name == "__init__",
        )
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            symbol.param_names.append(arg.arg)
            domain = annotation_domain(arg.annotation)
            if domain is Domain.BOTTOM:
                domain = domain_of_name(arg.arg)
            symbol.param_domains[arg.arg] = domain
            kind = annotation_kind(arg.annotation)
            if kind:
                symbol.param_kinds[arg.arg] = kind
        symbol.return_domain = annotation_domain(node.returns)
        if symbol.return_domain is Domain.BOTTOM and (
            symbol.is_property or class_name == ""
        ):
            # Convention-named properties (``frontier``, ``current_slack``)
            # and module functions inherit their name's domain.
            symbol.return_domain = domain_of_name(node.name)
        symbol.return_kind = annotation_kind(node.returns)
        return symbol

    def _seed_init_attrs(self, symbol: ClassSymbol) -> None:
        """Seed attribute cells from ``self.x = ...`` in the class body."""
        for method in symbol.methods.values():
            for node in ast.walk(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                if isinstance(node, ast.AnnAssign):
                    domain = annotation_domain(node.annotation)
                    if domain is not Domain.BOTTOM:
                        symbol.join_attr(attr, domain)
                if attr not in symbol.attr_domains:
                    domain = domain_of_name(attr)
                    if domain is not Domain.BOTTOM:
                        symbol.attr_domains[attr] = domain
                # Constructor calls type the attribute's kind.
                if isinstance(value, ast.Call):
                    callee = value.func
                    name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else ""
                    )
                    if name in self.classes or name in FRONTIER_STORE_KINDS:
                        symbol.attr_kinds.setdefault(attr, name)

    def _seed_known_members(self) -> None:
        for (class_name, member), domain in KNOWN_MEMBER_DOMAINS.items():
            symbol = self.classes.get(class_name)
            if symbol is None:
                continue
            method = symbol.methods.get(member)
            if method is not None:
                method.join_return(domain)
            else:
                symbol.join_attr(member, domain)

    # ------------------------------------------------------------------ #
    # lookups

    def ancestry(self, class_name: str) -> list[ClassSymbol]:
        """The class plus its resolvable bases, MRO-ish (BFS) order."""
        result: list[ClassSymbol] = []
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            symbol = self.classes.get(name)
            if symbol is None:
                continue
            result.append(symbol)
            queue.extend(symbol.base_names)
        return result

    def lineage_names(self, class_name: str) -> set[str]:
        """Simple names of the class and every resolvable ancestor."""
        names = {class_name}
        for symbol in self.ancestry(class_name):
            names.add(symbol.name)
            names.update(symbol.base_names)
        return names

    def find_method(self, class_name: str, method: str) -> FunctionSymbol | None:
        """Resolve a method through the class's ancestry."""
        for symbol in self.ancestry(class_name):
            found = symbol.methods.get(method)
            if found is not None:
                return found
        return None

    def attr_domain(self, class_name: str, attr: str) -> Domain:
        """Attribute domain through the ancestry, with known-member fallback."""
        for symbol in self.ancestry(class_name):
            domain = symbol.attr_domains.get(attr)
            if domain is not None and domain is not Domain.BOTTOM:
                return domain
        for name in self.lineage_names(class_name):
            known = KNOWN_MEMBER_DOMAINS.get((name, attr))
            if known is not None:
                return known
        return Domain.BOTTOM

    def attr_kind(self, class_name: str, attr: str) -> str:
        """Class name an attribute holds, resolved through the ancestry."""
        for symbol in self.ancestry(class_name):
            kind = symbol.attr_kinds.get(attr)
            if kind:
                return kind
        return ""

    def member_domain(self, class_name: str, member: str) -> Domain:
        """Domain of ``instance.member`` — property return, known member,
        or attribute cell, in that order."""
        method = self.find_method(class_name, member)
        if method is not None and method.is_property:
            if method.return_domain.is_definite:
                return method.return_domain
        for name in self.lineage_names(class_name):
            known = KNOWN_MEMBER_DOMAINS.get((name, member))
            if known is not None:
                return known
        return self.attr_domain(class_name, member)
