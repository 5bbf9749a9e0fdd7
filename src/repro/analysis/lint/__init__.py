"""repro-lint: AST-based invariant linter for the disorder-handling engine.

The linter enforces engine-specific invariants that generic tools cannot
know about.  R01-R04 are per-file syntactic rules; R06-R10 come from the
whole-program time-domain dataflow analysis
(:mod:`repro.analysis.dataflow`); R16-R20 are the float-soundness rules
over the numeric inventory (:mod:`repro.analysis.numeric`); R05 (metrics
fields, now enforced by ``RunMetrics.__slots__``) and R11-R15 (the
withdrawn concurrency rules) are retired ids and are not reused:

========  ============================================================
R01       no wall-clock time or nondeterministic RNG in ``engine``/``core``
R02       scalar/batched method parity (``process``/``process_many``,
          ``offer``/``offer_many``, ``add``/``add_many``)
R03       no ``==``/``!=`` on float timestamps
R04       no mutation of frozen ``StreamElement`` fields
R06       no cross-domain time arithmetic/comparison (event ⋈ proc time)
R07       frontier-contract conformance for ``DisorderHandler``
R08       no duration/timestamp mixing in slack computations
R09       domain-consistent ``RunMetrics`` fields
R10       unannotated public time-typed APIs in ``engine``/``core``
R16       no bare ``+=`` float accumulation in aggregate
          ``add``/``add_many``/``merge``; use the compensated primitives
R17       no subtraction-based sliding-window retraction; use
          ``RetractableSum`` (drift bound + periodic re-summation)
R18       no ``==``/``!=`` on accumulated floats; use ``floats_close``
R19       numeric classes declare ``__numeric__`` rounding discipline
R20       no mixed python/numpy summation orders across scalar/batched
          twins of one fold
========  ============================================================

A suppression comment naming an id no rule carries (``disable=R99``) is a
hard configuration error — typos must not silently disable nothing.

Run ``python -m repro.analysis.lint src/`` (exit status 1 on findings) or
call :func:`run_lint` programmatically.  Suppress a finding with an inline
``# repro-lint: disable=Rxx`` comment carrying a justification, or a
file-level ``# repro-lint: disable-file=Rxx`` — the one suppression
mechanism.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.model import (
    Finding,
    Project,
    SourceFile,
    discover_files,
)
from repro.analysis.lint.reporting import render_json, render_text
from repro.analysis.lint.rules import CORE_RULES, Rule
from repro.analysis.dataflow.rules import DATAFLOW_RULES
from repro.analysis.numeric.rules import NUMERIC_RULES
from repro.errors import ConfigurationError

#: Full rule catalog: per-file syntactic rules + whole-program dataflow
#: + float-soundness rules over the numeric inventory.
ALL_RULES: tuple[Rule, ...] = CORE_RULES + DATAFLOW_RULES + NUMERIC_RULES

__all__ = [
    "ALL_RULES",
    "CORE_RULES",
    "DATAFLOW_RULES",
    "NUMERIC_RULES",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "discover_files",
    "expand_rule_ids",
    "render_json",
    "render_text",
    "run_lint",
]


def expand_rule_ids(spec: str) -> list[str]:
    """Expand a rule selection string into explicit ids.

    Accepts comma-separated ids with optional ranges: ``"R06-R10"`` →
    ``["R06", ..., "R10"]``; ``"R01,R03"`` passes through.

    Raises:
        ConfigurationError: on malformed ids or inverted ranges.
    """
    ids: list[str] = []
    for part in spec.split(","):
        part = part.strip().upper()
        if not part:
            continue
        if "-" in part:
            low, _, high = part.partition("-")
            try:
                start, stop = int(low.lstrip("R")), int(high.lstrip("R"))
            except ValueError:
                raise ConfigurationError(f"malformed rule range: {part!r}")
            if stop < start:
                raise ConfigurationError(f"inverted rule range: {part!r}")
            ids.extend(f"R{number:02d}" for number in range(start, stop + 1))
        else:
            ids.append(part)
    return ids


def run_lint(
    paths: list[str | Path],
    select: list[str] | None = None,
    honour_suppressions: bool = True,
) -> list[Finding]:
    """Lint every Python file under ``paths`` and return the findings.

    Args:
        paths: Files and/or directories to scan (directories recurse).
        select: Rule ids to run (default: all rules).
        honour_suppressions: When False, report findings even on lines
            carrying ``# repro-lint: disable`` comments (used by the rule
            self-tests).

    Raises:
        ConfigurationError: when ``select`` names an unknown rule id, or
            when a suppression comment in a scanned file names one
            (``# repro-lint: disable=R99`` typos must not silently
            disable nothing).
    """
    wanted = {rule_id.upper() for rule_id in select} if select else None
    known = {rule.id for rule in ALL_RULES}
    if wanted is not None and not wanted <= known:
        unknown = ", ".join(sorted(wanted - known))
        raise ConfigurationError(f"unknown lint rule id(s): {unknown}")
    roots = [Path(p) for p in paths]
    root_dirs = [p for p in roots if p.is_dir()]
    files = []
    for path in discover_files(roots):
        root = next((r for r in root_dirs if r in path.parents), None)
        files.append(SourceFile.load(path, root=root))
    bad_mentions = [
        f"{source.display_path}:{line}: {rule_id}"
        for source in files
        for line, rule_id in source.suppression_mentions
        if rule_id != "ALL" and rule_id not in known
    ]
    if bad_mentions:
        raise ConfigurationError(
            "suppression comment(s) name unknown rule id(s) — "
            + "; ".join(sorted(bad_mentions))
        )
    project = Project(files)
    findings: list[Finding] = []
    for rule in ALL_RULES:
        if wanted is not None and rule.id not in wanted:
            continue
        for source in files:
            for finding in rule.check(source, project):
                if honour_suppressions and source.is_suppressed(
                    finding.rule, finding.line
                ):
                    continue
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings
