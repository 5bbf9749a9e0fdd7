"""Data model of the linter: parsed files, findings, suppressions.

The linter works on a :class:`Project` — every Python file under the
scanned roots, parsed once.  Rules receive the whole project so they can
perform cross-file analysis (e.g. resolving a class's ancestors to decide
whether it inherits a specialized batched path).

Suppressions are source comments:

* ``# repro-lint: disable=R01`` — suppress the named rule(s) on that line
  (comma-separated ids, or ``all``);
* ``# repro-lint: disable-file=R03`` — suppress for the whole file.

Every suppression in the repository is expected to carry a justification
in the surrounding code; the linter itself only honours the directive.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        """Deterministic report order: path, then position, then rule."""
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable representation (used by the JSON reporter)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _parse_ids(raw: str) -> set[str]:
    return {part.strip().upper() for part in raw.split(",") if part.strip()}


def _comments(text: str) -> list[tuple[int, str]]:
    """(line, comment text) for every comment token in ``text``.

    Falls back to raw lines when the file does not tokenize (the caller
    parses it with :mod:`ast` right before, so this only happens for
    encoding corner cases).
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return list(enumerate(text.splitlines(), start=1))


@dataclass
class SourceFile:
    """One parsed Python source file plus its suppression directives."""

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    #: Every rule id mentioned by a suppression comment, with its line —
    #: used to reject typo'd ids (``disable=R16``) that would otherwise
    #: silently disable nothing.
    suppression_mentions: list[tuple[int, str]] = field(default_factory=list)

    @staticmethod
    def load(path: Path, root: Path | None = None) -> "SourceFile":
        """Read and parse ``path``; raises ``SyntaxError`` on bad source."""
        text = path.read_text(encoding="utf-8")
        try:
            display = str(path.relative_to(root)) if root is not None else str(path)
        except ValueError:
            display = str(path)
        tree = ast.parse(text, filename=display)
        source = SourceFile(
            path=path, display_path=display, text=text, tree=tree
        )
        # Directives are read off real COMMENT tokens, not raw text lines:
        # a docstring *describing* ``# repro-lint: disable=R01`` must
        # neither suppress anything nor trip the unknown-id check.
        for number, line in _comments(text):
            if "repro-lint" not in line:
                continue
            match = _SUPPRESS_FILE.search(line)
            if match:
                ids = _parse_ids(match.group(1))
                source.file_suppressions |= ids
                source.suppression_mentions.extend(
                    (number, rule_id) for rule_id in sorted(ids)
                )
                continue
            match = _SUPPRESS_LINE.search(line)
            if match:
                ids = _parse_ids(match.group(1))
                source.line_suppressions.setdefault(number, set()).update(ids)
                source.suppression_mentions.extend(
                    (number, rule_id) for rule_id in sorted(ids)
                )
        return source

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when the rule is disabled for this file or this line."""
        rule_id = rule_id.upper()
        for ids in (self.file_suppressions, self.line_suppressions.get(line, ())):
            if rule_id in ids or "ALL" in ids:
                return True
        return False

    @property
    def engine_scoped(self) -> bool:
        """True for files inside the simulated-time core (``engine``/``core``)."""
        posix = self.path.as_posix()
        return "/engine/" in posix or "/core/" in posix


@dataclass
class ClassInfo:
    """Cross-file class facts used by the parity rule (R02) and the
    numeric inventory (R16, R18-R20)."""

    name: str
    display_path: str
    line: int
    base_names: list[str]
    methods: set[str]
    #: The class's AST (None for a name dropped as ambiguous).
    node: ast.ClassDef | None = None


class Project:
    """Every parsed file of one lint run, plus cross-file indexes."""

    def __init__(self, files: list[SourceFile]) -> None:
        self.files = files
        self.classes: dict[str, ClassInfo] = {}
        for source in files:
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                info = ClassInfo(
                    name=node.name,
                    display_path=source.display_path,
                    line=node.lineno,
                    base_names=[_base_name(base) for base in node.bases],
                    methods=methods,
                    node=node,
                )
                # Duplicate simple names across files are dropped from the
                # index: resolving them would need full import tracking, and
                # a wrong ancestor chain is worse than no finding.
                if node.name in self.classes:
                    self.classes[node.name] = ClassInfo(
                        name=node.name,
                        display_path="",
                        line=0,
                        base_names=[],
                        methods=set(),
                    )
                else:
                    self.classes[node.name] = info

    def ancestors(self, class_name: str) -> list[ClassInfo]:
        """Transitive base classes resolvable inside the project, BFS order."""
        seen: set[str] = {class_name}
        queue = list(self.classes.get(class_name, ClassInfo("", "", 0, [], set())).base_names)
        found: list[ClassInfo] = []
        while queue:
            base = queue.pop(0)
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is None:
                continue
            found.append(info)
            queue.extend(info.base_names)
        return found


def _base_name(node: ast.expr) -> str:
    """Simple name of a base-class expression (``pkg.Base`` -> ``Base``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _base_name(node.value)
    return ""


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            seen.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)
