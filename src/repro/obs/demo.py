"""A traced E4-style burst run, for demos, docs and the CI trace artifact.

:func:`burst_demo_run` reproduces the calm → burst → calm delay workload
of experiment E4 at reduced scale, runs the quality-driven AQ-K handler
over it with a :class:`~repro.obs.trace.TraceRecorder` attached, and
returns both the pipeline output and the recorder.  It is what
``python -m repro.obs demo`` exports and what the acceptance tests load
into the Chrome-trace validator: a burst run exercises every record kind
the schema defines (adaptations chasing the delay regime, buffer growth,
frontier stalls, late drops, θ violations on retirement).
"""

from __future__ import annotations

import numpy as np

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.pipeline import RunOutput, run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.obs.trace import TraceRecorder
from repro.streams.delay import BurstyDelay, ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream


def burst_demo_run(
    duration: float = 120.0,
    rate: float = 50.0,
    theta: float = 0.05,
    seed: int = 7,
    batch_size: int = 256,
    detail: bool = False,
) -> tuple[RunOutput, TraceRecorder]:
    """Run the E4-style burst workload with tracing on.

    Args:
        duration: Event-time span in seconds; the delay burst covers the
            middle third (mean delay 0.1s → 3s → 0.1s), so the adaptive
            slack has to climb and decay within the trace.
        rate: Events per second.
        theta: Mean-relative-error quality target of the AQ-K handler.
        seed: Stream seed — the run is deterministic given the arguments.
        batch_size: Pipeline chunk size; pass 0 for the scalar path.
        detail: Record per-element events too (large traces).

    Returns:
        ``(output, recorder)`` — the finished :class:`RunOutput` and the
        :class:`TraceRecorder` holding the run's events.

    The query is E4's: ``count`` over 10s sliding windows every 2s — the
    count error model maps θ directly to an allowed late fraction, so the
    applied slack visibly tracks the delay quantile through the burst.
    """
    rng = np.random.default_rng(seed)
    stream = inject_disorder(
        generate_stream(duration=duration, rate=rate, rng=rng),
        BurstyDelay(
            calm=ExponentialDelay(0.1),
            burst=ExponentialDelay(3.0),
            burst_start=duration / 3,
            burst_end=2 * duration / 3,
        ),
        rng,
    )
    aggregate = make_aggregate("count")
    handler = AQKSlackHandler(
        target=QualityTarget(theta),
        aggregate=aggregate,
        window_size=10.0,
    )
    operator = WindowAggregateOperator(
        assigner=SlidingWindowAssigner(size=10.0, slide=2.0),
        aggregate=aggregate,
        handler=handler,
    )
    recorder = TraceRecorder(detail=detail)
    output = run_pipeline(
        stream, operator, batch_size=batch_size, trace=recorder
    )
    return output, recorder
