"""E17: slice-based (tree) execution equals naive semantics at higher throughput."""

from repro.bench.experiments import e17_slice_execution

from benchmarks.conftest import run_and_render


def test_e17_slice_execution(benchmark):
    result = run_and_render(benchmark, e17_slice_execution, scale=0.3)

    for row in result.rows:
        # The optimization never changes results.
        assert row["results_equal"], row

    # At high window overlap the slice store clearly wins; at overlap 1
    # (tumbling) the two paths do the same work.
    by_overlap = {row["overlap"]: row for row in result.rows}
    assert by_overlap[20.0]["speedup"] > 1.5
    assert by_overlap[10.0]["speedup"] > 1.2
    assert by_overlap[1.0]["speedup"] > 0.5  # no large regression
