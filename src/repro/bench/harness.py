"""Shared experiment plumbing: workloads, policy runners, measurement rows.

Every experiment in :mod:`repro.bench.experiments` is built from the same
three steps:

1. build a seeded workload (:class:`WorkloadSpec` -> arrival-ordered stream),
2. run one or more disorder-handling policies over it
   (:func:`run_policy`), and
3. tabulate error/latency/memory into an
   :class:`~repro.bench.report.ExperimentResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.aqk import AQKSlackHandler
from repro.core.quality import QualityReport, assess_quality
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import AggregateFunction, make_aggregate
from repro.engine.handlers import (
    DisorderHandler,
    KSlackHandler,
    MPKSlackHandler,
    NoBufferHandler,
)
from repro.engine.metrics import LatencySummary
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import RunOutput, run_pipeline
from repro.engine.watermarks import HeuristicWatermarkHandler
from repro.engine.windows import SlidingWindowAssigner, WindowAssigner
from repro.errors import ExperimentError
from repro.streams.delay import (
    DelayModel,
    ExponentialDelay,
    MixtureDelay,
    ParetoDelay,
)
from repro.streams.disorder import inject_disorder, measure_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import UniformValues, ValueProcess, generate_stream


def default_delay_model() -> DelayModel:
    """The evaluation's reference delay mix: fast path + heavy tail."""
    return MixtureDelay(
        [(0.9, ExponentialDelay(0.2)), (0.1, ParetoDelay(shape=1.8, scale=1.0))]
    )


@dataclass
class WorkloadSpec:
    """A reproducible synthetic workload."""

    duration: float = 240.0
    rate: float = 100.0
    seed: int = 42
    delay_model: DelayModel = field(default_factory=default_delay_model)
    value_process: ValueProcess | None = None
    keys: tuple | None = None

    def scaled(self, scale: float) -> "WorkloadSpec":
        """Shrink/grow the workload duration (benchmarks run scaled down)."""
        if not (math.isfinite(scale) and scale > 0):
            raise ExperimentError(f"scale must be positive and finite, got {scale}")
        return WorkloadSpec(
            duration=self.duration * scale,
            rate=self.rate,
            seed=self.seed,
            delay_model=self.delay_model,
            value_process=self.value_process,
            keys=self.keys,
        )

    def build(self) -> list[StreamElement]:
        """Materialize the arrival-ordered stream from the spec's seed."""
        rng = np.random.default_rng(self.seed)
        values = self.value_process if self.value_process is not None else UniformValues(0.0, 1.0)
        in_order = generate_stream(
            duration=self.duration,
            rate=self.rate,
            rng=rng,
            value_process=values,
            keys=self.keys,
        )
        return inject_disorder(in_order, self.delay_model, rng)


@dataclass
class PolicyRun:
    """Everything measured for one (policy, workload, query) combination."""

    name: str
    output: RunOutput
    report: QualityReport
    latency: LatencySummary
    handler: DisorderHandler
    final_slack: float
    max_buffered: int

    @property
    def mean_error(self) -> float:
        return self.report.mean_error

    @property
    def mean_latency(self) -> float:
        return self.latency.mean


def make_policy(name: str, aggregate: AggregateFunction, window_size: float, **params):
    """Named policy factory used across experiments.

    Known names: ``no-buffer``, ``k-slack`` (param ``k``), ``mp-k-slack``,
    ``watermark-heuristic`` (param ``delay_quantile``), ``aq-k`` (param
    ``theta`` plus optional AQK kwargs), ``aq-k-budget`` (param ``budget``).
    """
    if name == "no-buffer":
        return NoBufferHandler()
    if name == "k-slack":
        return KSlackHandler(params["k"])
    if name == "mp-k-slack":
        return MPKSlackHandler()
    if name == "watermark-heuristic":
        return HeuristicWatermarkHandler(
            delay_quantile=params.get("delay_quantile", 0.95)
        )
    if name == "aq-k":
        theta = params.pop("theta")
        return AQKSlackHandler(
            target=QualityTarget(theta),
            aggregate=aggregate,
            window_size=window_size,
            **params,
        )
    if name == "aq-k-budget":
        budget = params.pop("budget")
        return AQKSlackHandler(
            target=LatencyBudget(budget),
            aggregate=aggregate,
            window_size=window_size,
            **params,
        )
    raise ExperimentError(f"unknown policy {name!r}")


def run_policy(
    stream: list[StreamElement],
    assigner: WindowAssigner,
    aggregate: AggregateFunction | str,
    handler: DisorderHandler,
    threshold: float | None = None,
    oracle: dict | None = None,
    name: str | None = None,
    keep_scores: bool = False,
    sample_every: int = 0,
) -> PolicyRun:
    """Run one policy over a stream; score against the oracle."""
    if isinstance(aggregate, str):
        aggregate = make_aggregate(aggregate)
    operator = WindowAggregateOperator(assigner, aggregate, handler)
    output = run_pipeline(stream, operator, sample_every=sample_every)
    if oracle is None:
        oracle = oracle_results(stream, assigner, aggregate)
    report = assess_quality(
        output.results, oracle, threshold=threshold, keep_scores=keep_scores
    )
    return PolicyRun(
        name=name if name is not None else handler.describe(),
        output=output,
        report=report,
        latency=output.latency_summary(),
        handler=handler,
        final_slack=handler.current_slack,
        max_buffered=handler.max_buffered_count(),
    )


def standard_query(window: float = 10.0, slide: float = 2.0) -> SlidingWindowAssigner:
    """The evaluation's default query window."""
    return SlidingWindowAssigner(size=window, slide=slide)


def workload_summary(stream: list[StreamElement]) -> str:
    """One-line description of the stream's disorder, for table notes."""
    stats = measure_disorder(stream)
    return (
        f"n={stats.n_elements}, ooo={stats.out_of_order_fraction:.1%}, "
        f"delay p50/p95/p99={stats.p50_delay:.2f}/{stats.p95_delay:.2f}/"
        f"{stats.p99_delay:.2f}s, max={stats.max_delay:.1f}s"
    )
