"""E19: tree execution beats per-window folds as overlap grows — with
identical results."""

from repro.bench.experiments import e19_tree_execution

from benchmarks.conftest import run_and_render


def test_e19_tree_execution(benchmark):
    result = run_and_render(benchmark, e19_tree_execution, scale=0.3)

    for row in result.rows:
        # The tree never changes results.
        assert row["results_equal"], row
    # (No tree-vs-naive throughput threshold is set here: re-defining the
    # overlap-sweep gates from fresh runs is an open item.)
