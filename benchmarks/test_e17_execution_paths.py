"""E17: every window execution path returns the naive scalar results; the
slice store pays with overlap and batching pays on every store."""

import numpy as np

from repro.bench.experiments import e17_execution_paths
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import MeanAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream

from benchmarks.conftest import run_and_render

#: Row -> the floor its ``ratio`` (eps over its baseline's eps) must beat.
RATIO_FLOORS = {
    # tree / naive: at high window overlap the slice store clearly wins;
    # at overlap 1 (tumbling) the two paths do the same work, so only a
    # large regression fails.
    "tree ov=20": 1.5,
    "tree ov=10": 1.2,
    "tree ov=1": 0.5,
    # batched / scalar at overlap 20: >= 2x on the naive operator; the
    # slice store (already O(1) per element) still gains from bulk
    # release and fold, but less; batching composes with the adaptive
    # handler (feedback on).
    "naive batched ov=20": 2.0,
    "tree batched ov=20": 1.2,
    "naive+aq-k batched ov=20": 2.0,
}


def test_e17_execution_paths(benchmark):
    result = run_and_render(benchmark, e17_execution_paths, scale=0.3)

    for row in result.rows:
        # No execution path changes results.
        assert row["results_equal"], row

    ratio = {row["config"]: row["ratio"] for row in result.rows}
    below = {
        config: ratio[config]
        for config, floor in RATIO_FLOORS.items()
        if not ratio[config] > floor
    }
    assert not below, below


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
