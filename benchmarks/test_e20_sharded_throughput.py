"""E20: sharded execution against the single tree pipeline at high
overlap, with per-group values identical across every configuration."""

from repro.bench.experiments import e20_sharded_throughput

from benchmarks.conftest import run_and_render


def test_e20_sharded_throughput(benchmark):
    result = run_and_render(benchmark, e20_sharded_throughput, scale=0.3)

    for row in result.rows:
        # Sharding never changes per-group values or counts.
        assert row["results_equal"], row

    # Sanity on the measurement itself: every configuration processed the
    # same stream, so throughput must be finite and positive.
    for row in result.rows:
        assert row["eps"] > 0
