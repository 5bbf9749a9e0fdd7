"""E18: batched execution equals scalar semantics at higher throughput."""

from repro.bench.experiments import e18_batched_throughput

from benchmarks.conftest import run_and_render


def test_e18_batched_throughput(benchmark):
    result = run_and_render(benchmark, e18_batched_throughput, scale=0.3)

    for row in result.rows:
        # Batching never changes results.
        assert row["results_equal"], row

    by_operator = {row["operator"]: row for row in result.rows}
    # The headline claim: >=2x single-thread throughput on the naive
    # operator at overlap 20; the slice store (already O(1) per
    # element) still gains from bulk release/fold but less.
    assert by_operator["naive"]["speedup"] > 2.0
    assert by_operator["tree"]["speedup"] > 1.2
    # Batching composes with the adaptive handler (feedback on).
    assert by_operator["naive+aq-k"]["speedup"] > 2.0
