"""Tests for the experiment harness plumbing."""

import pytest

from repro.bench.harness import (
    WorkloadSpec,
    default_delay_model,
    make_policy,
    run_policy,
    standard_query,
    workload_summary,
)
from repro.core.aqk import AQKSlackHandler
from repro.core.spec import LatencyBudget, QualityTarget
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import KSlackHandler, MPKSlackHandler, NoBufferHandler
from repro.engine.watermarks import HeuristicWatermarkHandler
from repro.errors import ExperimentError


class TestWorkloadSpec:
    def test_build_is_deterministic(self):
        spec = WorkloadSpec(duration=10, rate=20, seed=5)
        assert spec.build() == spec.build()

    def test_different_seeds_differ(self):
        a = WorkloadSpec(duration=10, rate=20, seed=5).build()
        b = WorkloadSpec(duration=10, rate=20, seed=6).build()
        assert a != b

    def test_scaled_shrinks_duration(self):
        spec = WorkloadSpec(duration=100, rate=20).scaled(0.1)
        assert spec.duration == pytest.approx(10.0)
        stream = spec.build()
        assert max(el.event_time for el in stream) < 10.0

    def test_scaled_keeps_other_fields(self):
        spec = WorkloadSpec(duration=100, rate=20, seed=9).scaled(0.5)
        assert spec.rate == 20
        assert spec.seed == 9

    def test_bad_scale_rejected(self):
        with pytest.raises(ExperimentError):
            WorkloadSpec().scaled(0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="finite"):
            WorkloadSpec().scaled(scale)

    def test_arrival_ordered_output(self):
        stream = WorkloadSpec(duration=10, rate=20).build()
        arrivals = [el.arrival_time for el in stream]
        assert arrivals == sorted(arrivals)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,params,cls",
        [
            ("no-buffer", {}, NoBufferHandler),
            ("k-slack", {"k": 1.0}, KSlackHandler),
            ("mp-k-slack", {}, MPKSlackHandler),
            ("watermark-heuristic", {}, HeuristicWatermarkHandler),
            ("aq-k", {"theta": 0.05}, AQKSlackHandler),
            ("aq-k-budget", {"budget": 1.0}, AQKSlackHandler),
        ],
    )
    def test_known_policies(self, name, params, cls):
        handler = make_policy(name, make_aggregate("count"), 10.0, **params)
        assert isinstance(handler, cls)

    def test_aqk_modes(self):
        quality = make_policy("aq-k", make_aggregate("count"), 10.0, theta=0.05)
        budget = make_policy("aq-k-budget", make_aggregate("count"), 10.0, budget=2.0)
        assert isinstance(quality.target, QualityTarget)
        assert isinstance(budget.target, LatencyBudget)

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            make_policy("bogus", make_aggregate("count"), 10.0)


class TestRunPolicy:
    def test_produces_scored_run(self):
        stream = WorkloadSpec(duration=20, rate=30).build()
        run = run_policy(
            stream,
            standard_query(),
            "count",
            KSlackHandler(1.0),
            threshold=0.05,
        )
        assert run.report.n_oracle_windows > 0
        assert run.latency.count > 0
        assert run.mean_error == run.report.mean_error
        assert run.mean_latency == run.latency.mean

    def test_oracle_can_be_shared(self):
        from repro.engine.oracle import oracle_results

        stream = WorkloadSpec(duration=20, rate=30).build()
        aggregate = make_aggregate("count")
        truth = oracle_results(stream, standard_query(), aggregate)
        run = run_policy(
            stream, standard_query(), aggregate, NoBufferHandler(), oracle=truth
        )
        assert run.report.n_oracle_windows == len(truth)

    def test_custom_name(self):
        stream = WorkloadSpec(duration=10, rate=20).build()
        run = run_policy(
            stream, standard_query(), "count", NoBufferHandler(), name="custom"
        )
        assert run.name == "custom"


class TestHelpers:
    def test_latency_grows_with_k(self):
        stream = WorkloadSpec(duration=40, rate=20).build()
        short, long = (
            run_policy(stream, standard_query(), "count", KSlackHandler(k))
            for k in (0.0, 1.0)
        )
        assert long.latency.mean > short.latency.mean

    def test_workload_summary_mentions_disorder(self):
        stream = WorkloadSpec(duration=10, rate=20).build()
        summary = workload_summary(stream)
        assert "ooo=" in summary
        assert f"n={len(stream)}" in summary

    def test_default_delay_model_heavy_tail(self, rng):
        model = default_delay_model()
        samples = sorted(model.sample(rng, 0.0) for __ in range(5000))
        # Mixture: mostly sub-second, tail well beyond a second.
        assert samples[int(0.5 * len(samples))] < 0.5
        assert samples[-1] > 2.0
