"""NumSan shadow-execution sanitizer: unit tests and pipeline mode."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.numeric.__main__ import main as numeric_main
from repro.analysis.numeric.numsan import (
    DRIFT_BOUNDS,
    NumSan,
    NumSanOperator,
    sanitize_operator,
)
from repro.engine.aggregate_op import EXECUTION_MODES, WindowAggregateOperator
from repro.engine.aggregates import AggregateFunction, make_aggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import ConfigurationError, SanitizerError
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream
from tests.conftest import build_elements

#: The cancellation window: the fsum reference keeps the 1.0 a naive
#: left-to-right fold loses entirely.
TORTURE = [1e16, 1.0, -1e16]


class NaiveSum(AggregateFunction):
    """A sum whose fold is deliberately naive — drifts on cancellation."""

    name = "sum"
    error_model_kind = "additive_mass"
    __numeric__ = "compensated"  # a lie this class cannot honour

    def create(self):
        return [0.0]

    def add(self, accumulator, value):
        accumulator[0] = accumulator[0] + value

    def result(self, accumulator):
        return accumulator[0]

    def merge(self, accumulator, other):
        accumulator[0] = accumulator[0] + other[0]
        return accumulator


class UncheckableAggregate(AggregateFunction):
    """An aggregate NumSan has no reference implementation for."""

    name = "weird"
    error_model_kind = "additive_mass"
    __numeric__ = "exact"

    def create(self):
        return []

    def add(self, accumulator, value):
        accumulator.append(value)

    def result(self, accumulator):
        return 42.0

    def merge(self, accumulator, other):
        accumulator.extend(other)
        return accumulator


def fold_and_check(aggregate, values, exact_every=16):
    """Shadow one aggregate, fold ``values``, extract the checked result."""
    san = NumSan(exact_every=exact_every)
    shadow = san.shadow_aggregate(aggregate)
    accumulator = shadow.create()
    shadow.add_many(accumulator, values)
    return san, shadow.result(accumulator)


# --------------------------------------------------------------------- #
# shadow checking


def test_compensated_sum_passes_the_torture_window():
    san, value = fold_and_check(make_aggregate("sum"), TORTURE)
    assert value == 1.0  # Neumaier recovered the cancelled 1.0
    stats = san.report.stats["sum"]
    assert stats.windows_checked == 1
    assert stats.max_rel_drift == 0.0
    assert stats.max_ulp == 0.0


def test_naive_sum_violates_its_declared_budget():
    with pytest.raises(SanitizerError, match=r"NumSan\[drift\].*'sum'"):
        fold_and_check(NaiveSum(), TORTURE)


def test_violation_message_names_discipline_and_bound():
    with pytest.raises(SanitizerError, match=r"compensated.*1e-12"):
        fold_and_check(NaiveSum(), TORTURE)


#: mean^2 / variance ~ 7.6e14: past the flat reassoc-tolerant budget for
#: an honest Welford (1.08e-9 relative), hopeless for a sum of squares.
ILL_CONDITIONED = [357913722.0, 357913721.0, 357913694.0]


class SumOfSquaresVariance(AggregateFunction):
    """The textbook one-pass variance: error grows with kappa squared."""

    name = "variance"
    error_model_kind = "mean"
    __numeric__ = "reassoc-tolerant"  # a lie on ill-conditioned windows

    def create(self):
        return [0, 0.0, 0.0]

    def add(self, accumulator, value):
        accumulator[0] += 1
        accumulator[1] += value
        accumulator[2] += value * value

    def result(self, accumulator):
        n, total, squares = accumulator
        return squares / n - (total / n) ** 2

    def merge(self, accumulator, other):
        for index, part in enumerate(other):
            accumulator[index] += part
        return accumulator


@pytest.mark.parametrize("name", ["variance", "stddev"])
def test_second_moment_budget_scales_with_conditioning(name):
    san, __ = fold_and_check(make_aggregate(name), ILL_CONDITIONED, exact_every=1)
    stats = san.report.stats[name]
    assert stats.windows_checked == 1
    # The widened budget is on record, and it is nowhere near a free pass.
    assert DRIFT_BOUNDS["reassoc-tolerant"] < stats.bound < 1e-7
    assert stats.max_rel_drift <= stats.bound


def test_sum_of_squares_variance_still_violates_the_scaled_budget():
    with pytest.raises(SanitizerError, match=r"'variance'.*conditioning-scaled"):
        fold_and_check(SumOfSquaresVariance(), ILL_CONDITIONED)
    # Well-conditioned windows pass it: the budget is about conditioning.
    fold_and_check(SumOfSquaresVariance(), [1.0, 2.0, 4.0])


def test_lying_exact_discipline_is_caught_bitwise():
    class LyingExactSum(NaiveSum):
        """Claims exactness; one ulp off is already a violation."""

        __numeric__ = "exact"

    with pytest.raises(SanitizerError, match=r'"exact".*differs'):
        # Naive fold gives 0.9999999999999999, the exact sum rounds to 1.0.
        fold_and_check(LyingExactSum(), [0.1] * 10)


def test_exact_count_passes_bitwise():
    san, value = fold_and_check(make_aggregate("count"), [1.0, 2.0, 3.0])
    assert value == 3.0
    assert san.report.stats["count"].max_ulp == 0.0


def test_mean_variance_and_quantile_references():
    values = [0.1 * step for step in range(1, 101)]
    for name, expected in [
        ("mean", math.fsum(values) / len(values)),
        ("p50", None),
        ("stddev", None),
    ]:
        san, value = fold_and_check(make_aggregate(name), list(values))
        stats = san.report.stats[name]
        assert stats.windows_checked == 1
        assert stats.max_rel_drift <= DRIFT_BOUNDS[stats.discipline]
        if expected is not None:
            assert math.isclose(value, expected, rel_tol=1e-9)


def test_empty_and_nonfinite_windows_are_skipped():
    san = NumSan()
    shadow = san.shadow_aggregate(make_aggregate("sum"))
    empty = shadow.create()
    shadow.result(empty)
    poisoned = shadow.create()
    shadow.add_many(poisoned, [1.0, math.nan])
    shadow.result(poisoned)
    stats = san.report.stats["sum"]
    assert stats.windows_checked == 0
    assert stats.windows_skipped == 2


def test_unknown_aggregates_are_recorded_not_silently_passed():
    san, value = fold_and_check(UncheckableAggregate(), [1.0, 2.0])
    assert value == 42.0
    stats = san.report.stats["weird"]
    assert stats.windows_checked == 0
    assert stats.windows_skipped == 1
    assert san.report.windows_skipped() == 1


def test_exact_every_one_makes_every_check_exact():
    san = NumSan(exact_every=1)
    shadow = san.shadow_aggregate(make_aggregate("sum"))
    for _ in range(5):
        accumulator = shadow.create()
        shadow.add_many(accumulator, TORTURE)
        shadow.result(accumulator)
    stats = san.report.stats["sum"]
    assert stats.windows_checked == 5
    assert stats.windows_exact == 5


def test_exact_sampling_cadence():
    san = NumSan(exact_every=4)
    shadow = san.shadow_aggregate(make_aggregate("sum"))
    for _ in range(8):
        accumulator = shadow.create()
        shadow.add_many(accumulator, [1.0, 2.0])
        shadow.result(accumulator)
    assert san.report.stats["sum"].windows_exact == 2


def test_shadow_merge_concatenates_mirrors():
    san = NumSan()
    shadow = san.shadow_aggregate(make_aggregate("sum"))
    left = shadow.create()
    shadow.add_many(left, [1e16, 1.0])
    right = shadow.create()
    shadow.add(right, -1e16)
    shadow.merge(left, right)
    assert shadow.result(left) == 1.0
    assert san.report.stats["sum"].windows_checked == 1


# --------------------------------------------------------------------- #
# configuration errors


def test_exact_every_must_be_positive():
    with pytest.raises(ConfigurationError, match="exact_every"):
        NumSan(exact_every=0)


def test_missing_annotation_is_rejected():
    class BareAggregate:
        """Duck-typed aggregate with no __numeric__ contract at all."""

        name = "sum"
        error_model_kind = "additive_mass"

    with pytest.raises(ConfigurationError, match="no __numeric__"):
        NumSan().shadow_aggregate(BareAggregate())


def test_unknown_annotation_value_is_rejected():
    class MislabeledSum(NaiveSum):
        """An annotation outside the vocabulary has no drift budget."""

        __numeric__ = "fast"

    with pytest.raises(ConfigurationError, match="'fast'"):
        NumSan().shadow_aggregate(MislabeledSum())


def test_operator_without_aggregate_is_rejected():
    with pytest.raises(ConfigurationError, match="'aggregate'"):
        NumSan().guard_operator(object())


# --------------------------------------------------------------------- #
# run_pipeline(sanitize="numeric")


def make_operator(name="mean", mode="naive"):
    """Sliding aggregate over a K-slack handler."""
    return WindowAggregateOperator(
        SlidingWindowAssigner(size=2, slide=1),
        make_aggregate(name),
        KSlackHandler(k=1.0),
        mode=mode,
    )


def test_pipeline_numeric_mode_is_bit_identical_to_off():
    elements = build_elements(3, 200)
    for mode in EXECUTION_MODES:
        plain = run_pipeline(elements, make_operator(mode=mode), sample_every=25)
        recorder = TraceRecorder(detail=True)
        sanitized = run_pipeline(
            elements,
            make_operator(mode=mode),
            sample_every=25,
            sanitize="numeric",
            trace=recorder,
        )
        assert sanitized.results == plain.results
        assert sanitized.observed_errors == plain.observed_errors
        assert sanitized.metrics.n_results == plain.metrics.n_results
        # The shadow reached the store: every value the run extracted was
        # held to its reference — one per emitted window, plus one per
        # retirement correction.  The per-window store re-reads every
        # retained record; the slice stores re-assemble only the windows a
        # late element reached, and nothing is late here.
        checked = len(list(recorder.of_kind("numeric.drift")))
        assert plain.observed_errors
        assert plain.metrics.late_dropped == 0
        corrections = len(plain.observed_errors) if mode == "naive" else 0
        assert checked == len(plain.results) + corrections, mode


def test_pipeline_unknown_sanitizer_lists_numeric():
    with pytest.raises(ConfigurationError, match='"numeric"'):
        run_pipeline([], make_operator(), sanitize="float")


def test_sanitize_operator_exposes_the_report():
    operator = sanitize_operator(make_operator("sum"))
    assert isinstance(operator, NumSanOperator)
    elements = build_elements(5, 300)
    run_pipeline(elements, operator)
    stats = operator.report.stats["sum"]
    assert stats.windows_checked > 0
    assert stats.max_rel_drift <= DRIFT_BOUNDS["compensated"]
    # The proxy forwards public attributes of the wrapped operator.
    assert operator.aggregate is operator.shadow


def test_detail_tracer_records_drift_events():
    recorder = TraceRecorder(detail=True)
    operator = sanitize_operator(make_operator("sum"), tracer=recorder)
    run_pipeline(build_elements(2, 200), operator)
    events = list(recorder.of_kind("numeric.drift"))
    assert events
    assert events[0].fields["aggregate"] == "sum"
    assert events[0].fields["discipline"] == "compensated"
    assert any(event.fields["exact"] for event in events) or len(events) < 16


def test_default_tracer_records_no_drift_events():
    recorder = TraceRecorder()  # detail off: per-window records gated
    operator = sanitize_operator(make_operator("sum"), tracer=recorder)
    run_pipeline(build_elements(2, 200), operator)
    assert list(recorder.of_kind("numeric.drift")) == []


# --------------------------------------------------------------------- #
# acceptance drift bounds on the E18-style workload


@pytest.fixture(scope="module")
def disordered_stream():
    rng = np.random.default_rng(18)
    return inject_disorder(
        generate_stream(duration=1500 / 200, rate=200, rng=rng),
        ExponentialDelay(0.3),
        rng,
    )


@pytest.mark.parametrize(
    ("name", "budget"),
    [("sum", 1e-12), ("mean", 1e-12), ("count", 1e-12), ("variance", 1e-9)],
)
def test_acceptance_drift_bounds(disordered_stream, name, budget):
    operator = sanitize_operator(
        WindowAggregateOperator(
            SlidingWindowAssigner(size=2.0, slide=0.5),
            make_aggregate(name),
            KSlackHandler(1.0),
        )
    )
    run_pipeline(list(disordered_stream), operator)
    stats = operator.report.stats[name]
    assert stats.windows_checked > 0
    assert stats.windows_exact > 0  # the Fraction path was sampled
    assert stats.max_rel_drift <= budget


def test_smoke_cli(capsys):
    status = numeric_main(
        ["smoke", "--elements", "600", "--aggregates", "sum,count"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "all aggregates within declared budgets" in out
    assert "sum" in out
