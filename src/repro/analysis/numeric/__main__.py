"""CLI for the numeric analysis: the inventory dump.

``python -m repro.analysis.numeric inventory`` prints the numeric
inventory the R16 and R18-R20 lint rules govern: every lineage class, its
declared (or inherited) ``__numeric__`` discipline and how it entered
the inventory.  Exit status 2 on invalid annotations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError


def _load_project(path: str):
    from repro.analysis.lint.model import Project, SourceFile, discover_files

    root = Path(path)
    files = [
        SourceFile.load(file, root=root if root.is_dir() else None)
        for file in discover_files([root])
    ]
    return Project(files)


def _cmd_inventory(args: argparse.Namespace) -> int:
    from repro.analysis.numeric.sites import build_inventory

    inventory = build_inventory(_load_project(args.path))
    width = max((len(name) for name in inventory.classes), default=10)
    for name in sorted(inventory.classes):
        record = inventory.classes[name]
        discipline = record.effective or "?"
        origin = (
            f"inherited from {record.effective_origin}"
            if record.effective_origin
            else ("declared" if record.declared is not None else "missing")
        )
        print(
            f"{name:<{width}}  {discipline:<17} ({origin:<28}) "
            f"via {record.via}  [{record.module}:{record.line}]"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.numeric",
        description="Numeric analysis tools (inventory).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inventory = sub.add_parser("inventory", help="print the numeric inventory")
    inventory.add_argument(
        "path", nargs="?", default="src", help="source root to analyze"
    )
    inventory.set_defaults(func=_cmd_inventory)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"numeric: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
