"""Documentation health gates: API reference freshness, link integrity.

These are the test-suite versions of ``make docs-check`` and
``make linkcheck``: CI fails when ``docs/API.md`` drifts from the source
tree or a Markdown link/anchor breaks.  DESIGN.md's system inventory is
held to the code too: every package it names imports, and every system
names what reads it.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.docs import (
    GENERATED_BANNER,
    check_links,
    generate_api_markdown,
    iter_source_modules,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _docs_files() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_api_reference_is_fresh():
    committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    generated = generate_api_markdown(SRC)
    assert GENERATED_BANNER in committed
    assert committed == generated, (
        "docs/API.md is stale; regenerate with `python -m repro.docs` "
        "(or `make docs`)"
    )


def test_generator_is_deterministic():
    assert generate_api_markdown(SRC) == generate_api_markdown(SRC)


def test_generator_covers_every_package():
    names = [name for name, __ in iter_source_modules(SRC)]
    assert "repro" in names
    for package in ("repro.core", "repro.engine", "repro.obs", "repro.docs"):
        assert package in names
    assert names == sorted(names)
    assert not any(name.endswith("__main__") for name in names)


def test_markdown_links_resolve():
    problems = check_links(_docs_files())
    assert problems == [], "\n".join(problems)


def _inventory() -> tuple[list[str], list[list[str]]]:
    """Header and rows of the system inventory table in DESIGN.md."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    table = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    header, __, *rows = table  # the second line is the |---| rule
    return header, rows


def test_inventory_packages_import():
    header, rows = _inventory()
    column = header.index("Package")
    for row in rows:
        names = re.findall(r"`(repro(?:\.[\w*]+)*)`", row[column])
        assert names, f"{row[0]} names no package"
        for name in names:
            importlib.import_module(name.removesuffix(".*"))


def test_inventory_every_system_is_read():
    """A reader is an experiment, a CLI / SQL / builder entry, a perfbench
    workload, an example or an integration claim test; its own unit tests
    and docs do not count."""
    header, rows = _inventory()
    assert "Read by" in header, "DESIGN.md's inventory has no 'Read by' column"
    column = header.index("Read by")
    for row in rows:
        assert len(row) == len(header), f"{row[0]}: {len(row)} cells"
        assert row[column], f"{row[0]} is read by nothing"


def test_docs_reference_observability_and_glossary():
    """The new documents exist and are reachable from the entry points."""
    assert (ROOT / "docs" / "OBSERVABILITY.md").exists()
    assert (ROOT / "docs" / "GLOSSARY.md").exists()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "OBSERVABILITY.md" in readme
    assert "GLOSSARY.md" in readme
