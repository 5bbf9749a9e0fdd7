"""Experiment harness: workloads, policy runners, tables, E1..E14."""

from repro.bench.harness import (
    PolicyRun,
    WorkloadSpec,
    default_delay_model,
    make_policy,
    run_policy,
    standard_query,
    workload_summary,
)
from repro.bench.report import (
    ExperimentResult,
    format_value,
    is_monotone,
    render_table,
)

__all__ = [
    "ExperimentResult",
    "PolicyRun",
    "WorkloadSpec",
    "default_delay_model",
    "format_value",
    "is_monotone",
    "make_policy",
    "render_table",
    "run_policy",
    "standard_query",
    "workload_summary",
]
