"""Tier-1 smoke: a batched run emits what the scalar run emits.

One 20k-element run per driver.  That the batched one is no slower is
timed in ``benchmarks/test_e18_batched_throughput.py`` (``make bench``):
on a shared box two ~50 ms runs cannot carry a timing assertion (it
failed 2 of 100 trials at PR 21).
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import MeanAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream


def test_batched_results_equal_scalar():
    rng = np.random.default_rng(11)
    stream = inject_disorder(
        generate_stream(duration=200.0, rate=100.0, rng=rng),
        ExponentialDelay(0.4),
        rng,
    )
    assert len(stream) >= 15_000

    def make_operator():
        return WindowAggregateOperator(
            SlidingWindowAssigner(10.0, 1.0),
            MeanAggregate(),
            KSlackHandler(1.0),
            track_feedback=False,
        )

    scalar = run_pipeline(stream, make_operator(), batch_size=0)
    batched = run_pipeline(stream, make_operator(), batch_size=512)

    scalar_map = {(r.key, r.window): round(r.value, 9) for r in scalar.results}
    batched_map = {(r.key, r.window): round(r.value, 9) for r in batched.results}
    assert scalar_map == batched_map
    assert len(scalar.results) == len(batched.results)
