"""E18: batched execution equals scalar semantics at higher throughput."""

import numpy as np

from repro.bench.experiments import e18_batched_throughput
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import MeanAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream

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


def test_batched_throughput_not_slower_than_scalar(benchmark):
    # The timing half of tests/integration/test_batched_smoke.py (its
    # result-equality half stays in tier-1): best of two ~50 ms runs a side.
    rng = np.random.default_rng(11)
    stream = inject_disorder(
        generate_stream(duration=200.0, rate=100.0, rng=rng),
        ExponentialDelay(0.4),
        rng,
    )

    def best_eps(batch_size):
        return max(
            run_pipeline(
                stream,
                WindowAggregateOperator(
                    SlidingWindowAssigner(10.0, 1.0),
                    MeanAggregate(),
                    KSlackHandler(1.0),
                    track_feedback=False,
                ),
                batch_size=batch_size,
            ).metrics.throughput_eps
            for __ in range(2)
        )

    scalar, batched = benchmark.pedantic(
        lambda: (best_eps(0), best_eps(512)), rounds=1, iterations=1
    )
    assert batched >= scalar
