"""E21: process-pool shards use the cores, with results bit-identical
to the in-process executor for every shard count.  The throughput headline
(process(4) beats the single tree) only applies on runners with at least
4 cores, so it is asserted conditionally and always recorded."""

import os

from repro.bench.experiments import e21_process_throughput

from benchmarks.conftest import run_and_render


def test_e21_process_throughput(benchmark):
    result = run_and_render(benchmark, e21_process_throughput, scale=0.3)

    for row in result.rows:
        # Sharding and executor choice never change per-group values.
        assert row["results_equal"], row
        # The executor-independence half of the shard contract: each
        # process(n) run is bit-identical to its serial(n) twin.
        if row["identical_to_serial"] is not None:
            assert row["identical_to_serial"], row
        assert row["eps"] > 0

    by_config = {row["config"]: row for row in result.rows}
    cpu_count = os.cpu_count() or 1
    # The multicore headline: process(4) beats the single tree.  A box
    # with fewer than 4 cores physically cannot show it; the quick-bench
    # artifact (BENCH_e21.json) records the gate as skipped there.
    if cpu_count >= 4:
        assert by_config["process(4)"]["speedup_vs_tree"] > 1.0
    if cpu_count >= 2:
        assert (
            by_config["process(2)"]["eps"] >= by_config["serial(2)"]["eps"]
        )
