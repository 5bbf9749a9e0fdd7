"""Command-line entry point: ``python -m repro.analysis.lint [paths...]``.

Exit status is 0 when no findings survive suppression, 1 otherwise, and
2 on usage errors — suitable for ``make lint`` and CI gates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.lint import (
    ALL_RULES,
    expand_rule_ids,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)
from repro.errors import ConfigurationError


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the linter, print a report, return exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Engine-specific invariant linter (repro-lint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        default=None,
        help=(
            "comma-separated rule ids to run; ranges allowed "
            "(e.g. R16-R20). Default: all"
        ),
    )
    parser.add_argument(
        "--no-suppressions",
        action="store_true",
        help="ignore # repro-lint: disable comments",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.summary}")
            doc = (rule.__doc__ or "").strip()
            for line in doc.splitlines():
                print(f"      {line.strip()}")
            print()
        return 0

    try:
        select = expand_rule_ids(args.select) if args.select else None
        findings = run_lint(
            args.paths,
            select=select,
            honour_suppressions=not args.no_suppressions,
        )
    except ConfigurationError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        report = render_sarif(
            findings, {rule.id: rule.summary for rule in ALL_RULES}
        )
    elif args.format == "json":
        report = render_json(findings)
    else:
        report = render_text(findings)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
