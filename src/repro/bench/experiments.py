"""The reconstructed evaluation suite: one function per table/figure.

Each ``eNN_*`` function reproduces the corresponding experiment from
DESIGN.md and returns an :class:`~repro.bench.report.ExperimentResult`
holding the same rows/series the paper-style table or figure would show.
``scale`` shrinks the workload duration so the pytest-benchmark targets
stay fast; running this module as a script executes experiments at full
scale::

    python -m repro.bench.experiments E3 E6
    python -m repro.bench.experiments all --scale 0.5
"""

from __future__ import annotations

import argparse
import os
import sys
from statistics import median
from typing import Any, Callable, Sequence

import numpy as np

from repro.bench.harness import (
    PolicyRun,
    WorkloadSpec,
    default_delay_model,
    make_policy,
    run_policy,
    standard_query,
    workload_summary,
)
from repro.bench.report import ExperimentResult, render_table
from repro.core.aqk import AQKSlackHandler
from repro.core.controller import (
    AIMDController,
    NoFeedbackController,
    PIController,
    PureFeedbackController,
)
from repro.core.estimators import NaiveModel
from repro.core.quality import error_timeline
from repro.core.sampling import ReservoirSample, SlidingDelaySample
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.oracle import oracle_results
from repro.engine.pipeline import RunOutput, run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ExperimentError, ReproError
from repro.streams.delay import BurstyDelay, ExponentialDelay, MixtureDelay, ParetoDelay
from repro.streams.disorder import measure_disorder
from repro.workloads.financial import financial_ticks
from repro.workloads.sensors import sensor_readings
from repro.workloads.soccer import soccer_positions

THETA_DEFAULT = 0.05


# --------------------------------------------------------------------- #
# E1 / E2: the static tradeoff curves


def e01_latency_vs_k(scale: float = 1.0) -> ExperimentResult:
    """Figure E1: result latency grows with the slack K."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    result = ExperimentResult(
        experiment_id="E1",
        title="Result latency vs slack K (fixed K-slack, sliding 10s/2s, mean)",
        columns=["k", "mean_latency", "p95_latency", "max_buffered"],
        notes=[workload_summary(stream)],
    )
    for k in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        run = run_policy(
            stream, assigner, "mean", make_policy("k-slack", make_aggregate("mean"), 10.0, k=k)
        )
        result.add_row(
            k=k,
            mean_latency=run.latency.mean,
            p95_latency=run.latency.p95,
            max_buffered=run.max_buffered,
        )
    return result


def e02_error_vs_k(scale: float = 1.0) -> ExperimentResult:
    """Figure E2: result error falls with the slack K (quality side)."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    result = ExperimentResult(
        experiment_id="E2",
        title="Result error vs slack K (fixed K-slack, sliding 10s/2s, count)",
        columns=["k", "mean_error", "p95_error", "violation_fraction", "recall"],
        notes=[workload_summary(stream), f"violations at theta={THETA_DEFAULT}"],
    )
    for k in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("k-slack", aggregate, 10.0, k=k),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.add_row(
            k=k,
            mean_error=run.report.mean_error,
            p95_error=run.report.p95_error,
            violation_fraction=run.report.violation_fraction,
            recall=run.report.window_recall,
        )
    return result


# --------------------------------------------------------------------- #
# E3: headline comparison


def e03_headline(scale: float = 1.0) -> ExperimentResult:
    """Table E3: AQ-K vs baselines at equal quality targets."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    stats = measure_disorder(stream)

    policies = [
        ("no-buffer", {}),
        ("watermark-heuristic", {"delay_quantile": 0.95}),
        ("k-slack", {"k": stats.p95_delay}),
        ("mp-k-slack", {}),
        ("aq-k", {"theta": 0.05}),
        ("aq-k", {"theta": 0.01}),
    ]
    result = ExperimentResult(
        experiment_id="E3",
        title="Headline: policies at quality targets (count, sliding 10s/2s)",
        columns=[
            "policy",
            "target",
            "mean_error",
            "violation_fraction",
            "mean_latency",
            "p95_latency",
            "final_slack",
            "max_buffered",
        ],
        notes=[workload_summary(stream)],
    )
    for name, params in policies:
        theta = params.get("theta", THETA_DEFAULT)
        label = name if "theta" not in params else f"{name}(theta={params['theta']})"
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy(name, aggregate, 10.0, **dict(params)),
            threshold=theta,
            oracle=oracle,
            name=label,
        )
        result.add_row(
            policy=label,
            target=theta if name == "aq-k" else None,
            mean_error=run.report.mean_error,
            violation_fraction=run.report.violation_fraction,
            mean_latency=run.latency.mean,
            p95_latency=run.latency.p95,
            final_slack=run.final_slack,
            max_buffered=run.max_buffered,
        )
    return result


# --------------------------------------------------------------------- #
# E4: adaptation under a delay burst


def burst_workload(scale: float = 1.0, seed: int = 42) -> WorkloadSpec:
    """Calm -> burst -> calm delay workload used by E4/E13/E14."""
    duration = 300.0 * scale
    return WorkloadSpec(
        duration=duration,
        rate=100.0,
        seed=seed,
        delay_model=BurstyDelay(
            calm=ExponentialDelay(0.1),
            burst=ExponentialDelay(3.0),
            burst_start=duration / 3,
            burst_end=2 * duration / 3,
        ),
    )


def e04_burst_adaptation(scale: float = 1.0) -> ExperimentResult:
    """Figure E4: K(t), error(t), latency(t) across a delay burst."""
    spec = burst_workload(scale)
    stream = spec.build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    handler = make_policy("aq-k", aggregate, 10.0, theta=THETA_DEFAULT)
    run = run_policy(
        stream,
        assigner,
        make_aggregate("count"),
        handler,
        threshold=THETA_DEFAULT,
        oracle=oracle,
        keep_scores=True,
    )
    bucket = spec.duration / 10
    error_buckets = dict(error_timeline(run.report, bucket))
    latency_buckets: dict[int, list[float]] = {}
    for score in run.report.scores:
        if not np.isnan(score.latency):
            latency_buckets.setdefault(int(score.window.end // bucket), []).append(
                score.latency
            )
    slack_buckets: dict[int, list[float]] = {}
    for record in handler.adaptations:
        slack_buckets.setdefault(int(record.arrival_time // bucket), []).append(
            record.k_applied
        )

    result = ExperimentResult(
        experiment_id="E4",
        title="Adaptation timeline across a delay burst (AQ-K, theta=0.05)",
        columns=["t", "slack", "mean_error", "mean_latency"],
        notes=[
            workload_summary(stream),
            f"burst in [{spec.delay_model.burst_start:g}, "
            f"{spec.delay_model.burst_end:g})s",
        ],
    )
    for index in range(10):
        t = index * bucket
        slacks = slack_buckets.get(index, [])
        latencies = latency_buckets.get(index, [])
        result.add_row(
            t=t,
            slack=float(np.median(slacks)) if slacks else None,
            mean_error=error_buckets.get(t),
            mean_latency=float(np.mean(latencies)) if latencies else None,
        )
    return result


# --------------------------------------------------------------------- #
# E5: per-aggregate error models vs the naive model


def e05_aggregates(scale: float = 1.0) -> ExperimentResult:
    """Table E5: error-model fidelity across aggregate functions."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    result = ExperimentResult(
        experiment_id="E5",
        title="Aggregates under AQ-K (theta=0.05): tuned vs naive error model",
        columns=[
            "aggregate",
            "model_error",
            "model_latency",
            "naive_error",
            "naive_latency",
        ],
        notes=[workload_summary(stream), "naive model: error = late fraction"],
    )
    for name in ("count", "sum", "mean", "max", "median", "p95", "distinct"):
        aggregate = make_aggregate(name)
        oracle = oracle_results(stream, assigner, aggregate)
        tuned = run_policy(
            stream,
            assigner,
            make_aggregate(name),
            AQKSlackHandler(
                target=QualityTarget(THETA_DEFAULT),
                aggregate=aggregate,
                window_size=10.0,
            ),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        naive = run_policy(
            stream,
            assigner,
            make_aggregate(name),
            AQKSlackHandler(
                target=QualityTarget(THETA_DEFAULT),
                aggregate=NaiveModel(),
                window_size=10.0,
            ),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.add_row(
            aggregate=name,
            model_error=tuned.report.mean_error,
            model_latency=tuned.latency.mean,
            naive_error=naive.report.mean_error,
            naive_latency=naive.latency.mean,
        )
    return result


# --------------------------------------------------------------------- #
# E6: quality-target sweep


def e06_theta_sweep(scale: float = 1.0) -> ExperimentResult:
    """Figure E6: achieved latency as the quality target loosens."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    result = ExperimentResult(
        experiment_id="E6",
        title="Quality-target sweep (AQ-K, count, sliding 10s/2s)",
        columns=["theta", "mean_error", "violation_fraction", "mean_latency", "final_slack"],
        notes=[workload_summary(stream)],
    )
    for theta in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2):
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("aq-k", aggregate, 10.0, theta=theta),
            threshold=theta,
            oracle=oracle,
        )
        result.add_row(
            theta=theta,
            mean_error=run.report.mean_error,
            violation_fraction=run.report.violation_fraction,
            mean_latency=run.latency.mean,
            final_slack=run.final_slack,
        )
    return result


# --------------------------------------------------------------------- #
# E7: disorder-intensity sweep


def e07_disorder_sweep(scale: float = 1.0) -> ExperimentResult:
    """Figure E7: AQ-K vs conservative baseline as tails get heavier."""
    assigner = standard_query()
    aggregate = make_aggregate("count")
    result = ExperimentResult(
        experiment_id="E7",
        title="Disorder-intensity sweep: Pareto tail shape (smaller = heavier)",
        columns=[
            "shape",
            "ooo_fraction",
            "aqk_error",
            "aqk_latency",
            "mpk_latency",
            "latency_saving",
        ],
        notes=["10% of delays Pareto(shape, scale=1); 90% exp(0.2)"],
    )
    for shape in (3.0, 2.2, 1.8, 1.4, 1.1):
        spec = WorkloadSpec(
            delay_model=MixtureDelay(
                [
                    (0.9, ExponentialDelay(0.2)),
                    (0.1, ParetoDelay(shape=shape, scale=1.0)),
                ]
            )
        ).scaled(scale)
        stream = spec.build()
        oracle = oracle_results(stream, assigner, aggregate)
        stats = measure_disorder(stream)
        aqk = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("aq-k", aggregate, 10.0, theta=THETA_DEFAULT),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        mpk = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("mp-k-slack", aggregate, 10.0),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        saving = (
            mpk.latency.mean / aqk.latency.mean if aqk.latency.mean > 0 else float("nan")
        )
        result.add_row(
            shape=shape,
            ooo_fraction=stats.out_of_order_fraction,
            aqk_error=aqk.report.mean_error,
            aqk_latency=aqk.latency.mean,
            mpk_latency=mpk.latency.mean,
            latency_saving=saving,
        )
    return result


# --------------------------------------------------------------------- #
# Throughput: one clock for every eps in the suite (E8, E17, E21)

#: The table note every timed experiment carries.
TIMING_NOTE = "methodology: warmup round + median of 3 interleaved repeats"


def _run_timed_configs(
    stream: Sequence[Any],
    configs: Sequence[tuple[str, Callable[[], Any], int]],
    repeats: int = 3,
) -> dict[str, tuple[float, RunOutput]]:
    """The one throughput methodology of the suite (E8, E17, E21).

    One discarded warmup round (imports, allocator warmup, process-pool
    spawn) followed by ``repeats`` timed rounds run *interleaved* across
    configs, so slow drift (thermal, co-tenant noise) hits every config
    equally instead of biasing whichever ran last.  Per config the
    **median** eps of the timed rounds is reported, which is what keeps
    the gates from flaking on noisy runners.

    Args:
        stream: The arrival-ordered element list every run consumes.
        configs: ``(name, operator_factory, batch_size)`` triples;
            factories build a fresh operator per run (operators are
            single-use), and ``batch_size`` is handed to
            :func:`~repro.engine.pipeline.run_pipeline` (0 = scalar).
        repeats: Timed rounds per config (median-of-``repeats``).

    Returns:
        ``name -> (median_eps, output)`` with the output of the first
        timed round (identical across rounds for these deterministic
        pipelines).
    """
    for _name, factory, batch_size in configs:
        run_pipeline(stream, factory(), batch_size=batch_size)
    eps_samples: dict[str, list[float]] = {name: [] for name, _, _ in configs}
    outputs: dict[str, RunOutput] = {}
    for _round in range(repeats):
        for name, factory, batch_size in configs:
            output = run_pipeline(stream, factory(), batch_size=batch_size)
            eps_samples[name].append(output.metrics.throughput_eps)
            outputs.setdefault(name, output)
    return {
        name: (float(median(eps_samples[name])), outputs[name])
        for name, _, _ in configs
    }


def _same_results(results: Sequence[Any], baseline: Sequence[Any]) -> bool:
    """Equal result count, and per group the value (rounded) and count."""

    def groups(rows):
        return {(r.key, r.window): (round(r.value, 9), r.count) for r in rows}

    return len(results) == len(baseline) and groups(results) == groups(baseline)


# --------------------------------------------------------------------- #
# E8: runtime overhead of adaptation


def e08_overhead(scale: float = 1.0) -> ExperimentResult:
    """Table E8: throughput cost of estimation + adaptation."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    result = ExperimentResult(
        experiment_id="E8",
        title="Processing overhead (single-threaded simulated engine)",
        columns=[
            "policy",
            "wall_time_s",
            "throughput_eps",
            "relative_throughput",
            "released",
        ],
        notes=[
            workload_summary(stream),
            "absolute numbers are Python-simulator artifacts; ratios transfer",
            "released = elements the handler let through (rest dropped/held)",
            TIMING_NOTE,
        ],
    )
    configs = [
        (
            name,
            lambda name=name, params=params: WindowAggregateOperator(
                assigner,
                make_aggregate("count"),
                make_policy(name, aggregate, 10.0, **params),
            ),
            0,
        )
        for name, params in (
            ("no-buffer", {}),
            ("k-slack", {"k": 1.0}),
            ("aq-k", {"theta": THETA_DEFAULT}),
        )
    ]
    timed = _run_timed_configs(stream, configs)
    baseline_eps = timed["no-buffer"][0]
    for name, _factory, _batch_size in configs:
        eps, output = timed[name]
        result.add_row(
            policy=name,
            wall_time_s=len(stream) / eps,
            throughput_eps=eps,
            relative_throughput=eps / baseline_eps,
            released=output.metrics.released_count,
        )
    return result


# --------------------------------------------------------------------- #
# E9: latency-budget mode


def e09_latency_budget(scale: float = 1.0) -> ExperimentResult:
    """Table E9: quality maximized under a latency budget."""
    stream = WorkloadSpec().scaled(scale).build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    result = ExperimentResult(
        experiment_id="E9",
        title="Latency-budget mode (AQ-K, count)",
        columns=["budget", "final_slack", "mean_error", "mean_latency", "p95_latency"],
        notes=[workload_summary(stream)],
    )
    for budget in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("aq-k-budget", aggregate, 10.0, budget=budget),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.add_row(
            budget=budget,
            final_slack=run.final_slack,
            mean_error=run.report.mean_error,
            mean_latency=run.latency.mean,
            p95_latency=run.latency.p95,
        )
    return result


# --------------------------------------------------------------------- #
# E10: window/slide sensitivity


def e10_window_sweep(scale: float = 1.0) -> ExperimentResult:
    """Table E10: sensitivity to window and slide parameters."""
    stream = WorkloadSpec().scaled(scale).build()
    aggregate = make_aggregate("count")
    result = ExperimentResult(
        experiment_id="E10",
        title="Window/slide sweep (AQ-K, count, theta=0.05)",
        columns=["window", "slide", "mean_error", "violation_fraction", "mean_latency"],
        notes=[workload_summary(stream)],
    )
    for window, slide in ((2.0, 1.0), (5.0, 1.0), (10.0, 2.0), (30.0, 5.0), (60.0, 10.0)):
        assigner = SlidingWindowAssigner(size=window, slide=slide)
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            make_policy("aq-k", aggregate, window, theta=THETA_DEFAULT),
            threshold=THETA_DEFAULT,
        )
        result.add_row(
            window=window,
            slide=slide,
            mean_error=run.report.mean_error,
            violation_fraction=run.report.violation_fraction,
            mean_latency=run.latency.mean,
        )
    return result


# --------------------------------------------------------------------- #
# E12: domain workloads end-to-end


def e12_workloads(scale: float = 1.0) -> ExperimentResult:
    """Table E12: AQ-K on the three simulated domain workloads."""
    rng_seed = 42
    duration = 180.0 * scale
    cases = [
        (
            "financial",
            financial_ticks(
                duration=duration, rate=150, rng=np.random.default_rng(rng_seed)
            ),
            "mean",
        ),
        (
            "sensors",
            sensor_readings(
                duration=duration, rate=100, rng=np.random.default_rng(rng_seed)
            ),
            "mean",
        ),
        (
            "soccer",
            soccer_positions(
                duration=duration, rate=200, rng=np.random.default_rng(rng_seed)
            ),
            "max",
        ),
    ]
    result = ExperimentResult(
        experiment_id="E12",
        title="Domain workloads (AQ-K theta=0.05 vs no-buffer)",
        columns=[
            "workload",
            "aggregate",
            "aqk_error",
            "aqk_latency",
            "nobuf_error",
            "nobuf_latency",
        ],
    )
    for name, stream, aggregate_name in cases:
        aggregate = make_aggregate(aggregate_name)
        assigner = standard_query()
        oracle = oracle_results(stream, assigner, aggregate)
        aqk = run_policy(
            stream,
            assigner,
            make_aggregate(aggregate_name),
            make_policy("aq-k", aggregate, 10.0, theta=THETA_DEFAULT),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        nobuf = run_policy(
            stream,
            assigner,
            make_aggregate(aggregate_name),
            make_policy("no-buffer", aggregate, 10.0),
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.notes.append(f"{name}: {workload_summary(stream)}")
        result.add_row(
            workload=name,
            aggregate=aggregate_name,
            aqk_error=aqk.report.mean_error,
            aqk_latency=aqk.latency.mean,
            nobuf_error=nobuf.report.mean_error,
            nobuf_latency=nobuf.latency.mean,
        )
    return result


# --------------------------------------------------------------------- #
# E13 / E14: ablations


def e13_ablation_controller(scale: float = 1.0) -> ExperimentResult:
    """Table E13: controller ablation on the burst workload."""
    spec = burst_workload(scale)
    stream = spec.build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    controllers = [
        ("estimator-only", NoFeedbackController()),
        ("estimator+pi", PIController(target=THETA_DEFAULT)),
        ("estimator+aimd", AIMDController(target=THETA_DEFAULT)),
        ("feedback-only", PureFeedbackController(target=THETA_DEFAULT)),
    ]
    result = ExperimentResult(
        experiment_id="E13",
        title="Controller ablation (burst workload, count, theta=0.05)",
        columns=["controller", "mean_error", "violation_fraction", "mean_latency"],
        notes=[workload_summary(stream)],
    )
    for name, controller in controllers:
        handler = AQKSlackHandler(
            target=QualityTarget(THETA_DEFAULT),
            aggregate=make_aggregate("count"),
            window_size=10.0,
            controller=controller,
        )
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            handler,
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.add_row(
            controller=name,
            mean_error=run.report.mean_error,
            violation_fraction=run.report.violation_fraction,
            mean_latency=run.latency.mean,
        )
    return result


def e14_ablation_sampling(scale: float = 1.0) -> ExperimentResult:
    """Table E14: delay-sampler ablation under non-stationary delays."""
    spec = burst_workload(scale)
    stream = spec.build()
    assigner = standard_query()
    aggregate = make_aggregate("count")
    oracle = oracle_results(stream, assigner, aggregate)
    samplers = [
        ("sliding", SlidingDelaySample(capacity=2000)),
        ("reservoir", ReservoirSample(capacity=2000)),
    ]
    result = ExperimentResult(
        experiment_id="E14",
        title="Delay-sampler ablation (burst workload, count, theta=0.05)",
        columns=["sampler", "mean_error", "violation_fraction", "mean_latency", "final_slack"],
        notes=[
            workload_summary(stream),
            "reservoir keeps burst delays forever: over-buffers after the burst",
        ],
    )
    for name, sampler in samplers:
        handler = AQKSlackHandler(
            target=QualityTarget(THETA_DEFAULT),
            aggregate=make_aggregate("count"),
            window_size=10.0,
            delay_sample=sampler,
        )
        run = run_policy(
            stream,
            assigner,
            make_aggregate("count"),
            handler,
            threshold=THETA_DEFAULT,
            oracle=oracle,
        )
        result.add_row(
            sampler=name,
            mean_error=run.report.mean_error,
            violation_fraction=run.report.violation_fraction,
            mean_latency=run.latency.mean,
            final_slack=run.final_slack,
        )
    return result


# --------------------------------------------------------------------- #
# E15/E16: quality-driven pair operators (interval join, sequence pattern)


def _pair_quality_table(
    experiment_id: str,
    title: str,
    columns: list[str],
    noun: str,
    scale: float,
    keys: tuple[str, ...],
    value_of: Callable[[int], float],
    quantiles: tuple[str, ...],
    fixed: Callable[[Any], Any],
    adaptive: Callable[[float], Any],
) -> ExperimentResult:
    """Recall, final slack and mean latency of one pair query per policy.

    ``fixed(handler)`` / ``adaptive(threshold)`` build the operator;
    ``value_of(i)`` signs the i-th element, which is how the query tells
    the two roles apart; ``columns`` are policy, recall, slack, latency.
    """
    from repro.engine.handlers import MPKSlackHandler, NoBufferHandler
    from repro.engine.pairs import oracle_pairs, pair_recall
    from repro.streams.element import StreamElement
    from repro.streams.generators import generate_stream
    from repro.streams.disorder import inject_disorder

    rng = np.random.default_rng(42)
    base = generate_stream(duration=240.0 * scale, rate=120, rng=rng, keys=keys)
    signed = [
        StreamElement(
            event_time=el.event_time, value=value_of(i), key=el.key, seq=el.seq
        )
        for i, el in enumerate(base)
    ]
    stream = inject_disorder(signed, default_delay_model(), rng)
    stats = measure_disorder(stream)

    policies = [("no-buffer", fixed(NoBufferHandler()))]
    policies += [
        (f"k-slack({q})", fixed(KSlackHandler(getattr(stats, f"{q}_delay"))))
        for q in quantiles
    ]
    policies.append(("mp-k-slack", fixed(MPKSlackHandler())))
    policies += [
        (f"quality(loss<={theta})", adaptive(theta)) for theta in (0.05, 0.01)
    ]
    query = policies[0][1]
    truth = oracle_pairs(stream, query.roles_of, query.in_bound)

    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=columns,
        notes=[workload_summary(stream), f"true {noun}: {len(truth)}"],
    )
    __, recall, slack, latency = columns
    for name, operator in policies:
        matches = run_pipeline(stream, operator).results
        latencies = [m.latency for m in matches]
        result.add_row(
            **{
                "policy": name,
                recall: pair_recall(matches, truth),
                slack: operator.current_slack,
                latency: float(np.mean(latencies)) if latencies else None,
            }
        )
    return result


def e15_join_quality(scale: float = 1.0) -> ExperimentResult:
    """Table E15: pair recall vs latency for interval joins under disorder."""
    from repro.core.pair_quality import QualityDrivenIntervalJoin
    from repro.engine.pairs import IntervalJoinOperator

    def side_of(element) -> str:
        return "left" if element.value >= 0 else "right"

    bound = 0.5
    return _pair_quality_table(
        "E15",
        "Interval join (|dt|<=0.5s) under disorder: recall vs slack",
        ["policy", "pair_recall", "final_slack", "mean_pair_latency"],
        "pairs",
        scale,
        keys=("a", "b", "c"),
        value_of=lambda i: 1.0 if i % 2 == 0 else -1.0,
        quantiles=("p95",),
        fixed=lambda handler: IntervalJoinOperator(bound, handler, side_of),
        adaptive=lambda theta: QualityDrivenIntervalJoin(
            bound, side_of, threshold=theta
        ),
    )


def e16_pattern_quality(scale: float = 1.0) -> ExperimentResult:
    """Table E16: A-then-B match recall across disorder-handling policies.

    Sequence patterns are the extreme of disorder sensitivity: one late
    event deletes an entire match.  The table contrasts the zero-latency
    baseline, fixed slacks sized at delay quantiles, the conservative
    max-delay policy and the recall-targeted adaptive operator.
    """
    from repro.core.pair_quality import QualityDrivenSequencePattern
    from repro.engine.pairs import SequencePatternOperator

    def is_a(element) -> bool:
        return element.value > 0

    def is_b(element) -> bool:
        return element.value < 0

    within = 1.0
    return _pair_quality_table(
        "E16",
        "Sequence pattern 'A then B within 1s': recall vs slack",
        ["policy", "match_recall", "slack", "mean_match_latency"],
        "matches",
        scale,
        keys=("x", "y", "z"),
        value_of=lambda i: 1.0 if i % 3 else -1.0,  # one third are B events
        quantiles=("p50", "p95", "p99"),
        fixed=lambda handler: SequencePatternOperator(
            is_a, is_b, within=within, handler=handler
        ),
        adaptive=lambda theta: QualityDrivenSequencePattern(
            is_a, is_b, within=within, threshold=theta
        ),
    )


# --------------------------------------------------------------------- #
# E17: window execution paths (naive vs tree, scalar vs batched)

#: E17's overlap sweep: overlap factor -> (window size, slide) in seconds.
E17_WINDOWS = {
    1: (10.0, 10.0),
    5: (10.0, 2.0),
    8: (1.0, 0.125),
    10: (10.0, 1.0),
    20: (20.0, 1.0),
    64: (8.0, 0.125),
    256: (32.0, 0.125),
}


def e17_execution_paths(scale: float = 1.0) -> ExperimentResult:
    """Table E17: one window query down every execution path.

    Naive execution folds every element into each of its ``overlap``
    windows; the slice store (``mode="tree"``) folds it once into its
    slice and closes an in-order window with one merge from a per-key
    suffix/prefix fold, so it pulls away from naive as the overlap grows.
    At overlap 20 both stores also run batched (``batch_size=512``
    through ``process_many`` / ``offer_many`` / ``add_many``), and naive
    runs under AQ-K with feedback on, scalar and batched.

    Every row names its baseline: a tree row the naive row at the same
    overlap, a batched row the scalar row of the same store.  ``ratio``
    is eps over the baseline's eps, and ``results_equal`` checks the
    result count and each group's rounded value and count against it.
    """
    stream = WorkloadSpec().scaled(scale).build()
    batch_size = 512
    result = ExperimentResult(
        experiment_id="E17",
        title="Window execution paths: naive vs tree, scalar vs batched (mean)",
        columns=["config", "overlap", "eps", "baseline", "ratio", "results_equal"],
        notes=[
            workload_summary(stream),
            "overlap = window size / slide; K-slack 1s with feedback off, "
            f"except aq-k (theta={THETA_DEFAULT}, feedback on)",
            f"batched = run_pipeline(batch_size={batch_size}) through the bulk APIs",
            TIMING_NOTE,
        ],
    )

    def window_operator(size, slide, mode="naive"):
        return lambda: WindowAggregateOperator(
            SlidingWindowAssigner(size=size, slide=slide),
            make_aggregate("mean"),
            KSlackHandler(1.0),
            track_feedback=False,
            mode=mode,
        )

    def aqk_operator():
        return WindowAggregateOperator(
            SlidingWindowAssigner(size=20.0, slide=1.0),
            make_aggregate("mean"),
            AQKSlackHandler(QualityTarget(THETA_DEFAULT), "mean", window_size=20.0),
        )

    # (config, overlap, factory, batch size, baseline config)
    rows = []
    for overlap, (size, slide) in E17_WINDOWS.items():
        naive = f"naive ov={overlap}"
        rows.append((naive, overlap, window_operator(size, slide), 0, None))
        rows.append(
            (f"tree ov={overlap}", overlap, window_operator(size, slide, "tree"), 0, naive)
        )
    rows.append(("naive+aq-k ov=20", 20, aqk_operator, 0, None))
    rows += [
        (name.replace(" ov=20", " batched ov=20"), 20, factory, batch_size, name)
        for name, overlap, factory, _, _ in rows
        if overlap == 20
    ]

    timed = _run_timed_configs(
        stream, [(name, factory, batch) for name, _, factory, batch, _ in rows]
    )
    for name, overlap, _factory, _batch, baseline in rows:
        eps, output = timed[name]
        result.add_row(
            config=name,
            overlap=overlap,
            eps=eps,
            baseline=baseline,
            ratio=eps / timed[baseline][0] if baseline else None,
            results_equal=baseline is None
            or _same_results(output.results, timed[baseline][1].results),
        )
    return result


# --------------------------------------------------------------------- #
# E21: sharded execution, in-process and on a process pool


def e21_process_throughput(scale: float = 1.0) -> ExperimentResult:
    """Table E21: process-pool shards vs in-process shards vs single tree.

    A 16-key workload under a high-overlap sliding window (overlap 64:
    8s window, 0.125s slide), the regime where per-close cost dominates.
    Sharding routes each key to one of n shards, each closing windows over
    1/n of the keys with its own tree-mode operator, and a deterministic
    merge recombines the per-shard windows.  K is the empirical max delay
    plus epsilon, so nothing is late and every config is value-comparable.

    ``serial(n)`` runs the shards in-process, every shard on the
    coordinator's core: these rows are the reference the process rows
    must reproduce, not a speedup (per-shard operators track fewer
    windows, which does not pay for routing and the merge).  ``process(n)``
    runs them on a :class:`~repro.engine.process_pool.ProcessShardExecutor`:
    chunked incremental dispatch onto a warm pool of spawn-started
    workers, kept alive across the warmup round and all timed repeats, so
    shards compute on real cores; its eps includes routing, chunk
    encoding, IPC and the merge.

    ``results_equal`` checks rounded per-group values/counts against the
    single tree; ``identical_to_serial`` checks the process run's full
    result list bit-for-bit against the in-process run with the same
    shard count (the executor-independence half of the shard contract).
    Headline (on a >=4-core runner): process(4) beats the single tree;
    CI gates process(2) >= serial(2).  ``cpu_count`` is recorded in the
    notes so gates can be scoped to runners that can physically show
    parallel speedup.
    """
    from repro.engine.parallel import ShardExecutor, ShardedWindowOperator
    from repro.engine.process_pool import ProcessShardExecutor

    stream = (
        WorkloadSpec(
            delay_model=ExponentialDelay(0.25),
            keys=tuple(f"s{i}" for i in range(16)),
        )
        .scaled(scale)
        .build()
    )
    k = max(e.arrival_time - e.event_time for e in stream) + 1e-6
    slide = 0.125
    assigner = SlidingWindowAssigner(size=64 * slide, slide=slide)
    aggregate_name = "count"
    cpu_count = os.cpu_count() or 1

    result = ExperimentResult(
        experiment_id="E21",
        title="Process-pool shards vs in-process shards vs single tree (overlap 64)",
        columns=[
            "config",
            "eps",
            "speedup_vs_tree",
            "results_equal",
            "identical_to_serial",
        ],
        notes=[
            workload_summary(stream),
            f"16-key workload, sliding {64 * slide:g}s/{slide:g}s window, "
            f"K-slack K={k:.3f}s (max delay + eps: no late drops), "
            "tree mode per shard, feedback off",
            "serial rows run in-process: the reference, not core-parallelism; "
            "see docs/SCALING.md",
            "process rows: warm spawn pool, chunked dispatch "
            "(chunk_size=512), eps includes encode+IPC+merge",
            f"cpu_count={cpu_count}",
            TIMING_NOTE,
        ],
    )

    def make_tree():
        return WindowAggregateOperator(
            assigner,
            make_aggregate(aggregate_name),
            KSlackHandler(k),
            track_feedback=False,
            mode="tree",
        )

    def make_sharded(n_shards, executor_factory):
        def build():
            return ShardedWindowOperator(
                n_shards,
                assigner,
                make_aggregate(aggregate_name),
                lambda: KSlackHandler(k),
                mode="tree",
                track_feedback=False,
                executor=executor_factory(),
            )

        return build

    shard_counts = (2, 4, 8)
    process_executors = {
        n: ProcessShardExecutor(max_workers=n) for n in shard_counts
    }
    try:
        configs: list[tuple[str, Callable[[], Any], int]] = [
            ("single tree", make_tree, 0)
        ]
        for n in shard_counts:
            configs.append((f"serial({n})", make_sharded(n, ShardExecutor), 0))
        for n in shard_counts:
            configs.append(
                (
                    f"process({n})",
                    make_sharded(n, lambda n=n: process_executors[n]),
                    0,
                )
            )
        timed = _run_timed_configs(stream, configs)
    finally:
        for executor in process_executors.values():
            executor.close()

    def exact(results):
        return [
            (r.key, r.window, float(r.value), r.count, r.emit_time, r.flushed)
            for r in results
        ]

    baseline_eps, baseline = timed["single tree"]
    for name, _factory, _batch_size in configs:
        eps, output = timed[name]
        identical = None
        if name.startswith("process("):
            serial_twin = "serial(" + name[len("process("):]
            identical = exact(output.results) == exact(timed[serial_twin][1].results)
        result.add_row(
            config=name,
            eps=eps,
            speedup_vs_tree=(
                eps / baseline_eps if name != "single tree" else None
            ),
            results_equal=_same_results(output.results, baseline.results),
            identical_to_serial=identical,
        )
    return result


EXPERIMENTS = {
    "E1": e01_latency_vs_k,
    "E2": e02_error_vs_k,
    "E3": e03_headline,
    "E4": e04_burst_adaptation,
    "E5": e05_aggregates,
    "E6": e06_theta_sweep,
    "E7": e07_disorder_sweep,
    "E8": e08_overhead,
    "E9": e09_latency_budget,
    "E10": e10_window_sweep,
    "E12": e12_workloads,
    "E13": e13_ablation_controller,
    "E14": e14_ablation_sampling,
    "E15": e15_join_quality,
    "E16": e16_pattern_quality,
    "E17": e17_execution_paths,
    "E21": e21_process_throughput,
}


def run_experiment(experiment_id: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id (``"E3"``)."""
    try:
        function = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return function(scale=scale)


def main(argv: list[str] | None = None) -> int:
    """Script entry point: render selected experiments as tables."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.experiments",
        description="Render reconstructed experiments as ASCII tables.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids, or all (default)")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    ids = list(EXPERIMENTS) if args.ids in ([], ["all"]) else args.ids
    try:
        for experiment_id in ids:
            print(render_table(run_experiment(experiment_id, scale=args.scale)))
            print()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
