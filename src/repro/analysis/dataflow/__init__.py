"""Whole-program time-domain dataflow analysis (repro-lint v2).

Infers which time domain — event time, processing time, duration, count —
every parameter, return, attribute, and local in ``src/repro`` carries,
then reports cross-module violations as lint rules R06-R10.  See
``docs/ANALYSIS.md`` ("Time-domain analysis") for the lattice and the
seeding sources.
"""

from __future__ import annotations

from repro.analysis.dataflow.lattice import Domain, domain_of_name, join
from repro.analysis.dataflow.propagation import (
    AnalysisResult,
    DomainViolation,
    analyse,
    analysis_for,
)
from repro.analysis.dataflow.rules import DATAFLOW_RULES
from repro.analysis.dataflow.sarif import (
    finding_fingerprint,
    render_sarif,
    sarif_report,
)
from repro.analysis.dataflow.symbols import SymbolTable

__all__ = [
    "AnalysisResult",
    "DATAFLOW_RULES",
    "Domain",
    "DomainViolation",
    "SymbolTable",
    "analyse",
    "analysis_for",
    "domain_of_name",
    "finding_fingerprint",
    "join",
    "render_sarif",
    "sarif_report",
]
