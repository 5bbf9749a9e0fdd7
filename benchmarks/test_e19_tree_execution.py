"""E19: tree execution and shared slices beat per-window and per-query
pipelines — all with identical results."""

from repro.bench.experiments import e19_tree_execution

from benchmarks.conftest import run_and_render


def test_e19_tree_execution(benchmark):
    result = run_and_render(benchmark, e19_tree_execution, scale=0.3)

    for row in result.rows:
        # Neither the tree nor the shared store ever changes results.
        assert row["results_equal"], row

    by_config = {row["config"]: row for row in result.rows}
    # The headline claim: one shared slice store outruns a naive pipeline
    # per query.  (No tree-vs-naive throughput threshold is set here:
    # re-defining the overlap-sweep gates from fresh runs is an open item.)
    assert by_config["multi-query(4xAQ-K)"]["shared_over_naive"] > 2.0
