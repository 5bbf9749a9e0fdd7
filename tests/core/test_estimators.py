"""Tests for the per-aggregate error models."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aqk import AQKSlackHandler
from repro.core.estimators import (
    AdditiveMassModel,
    ErrorModel,
    DistinctModel,
    ExtremumModel,
    MeanModel,
    NaiveModel,
    RankModel,
    StreamContext,
    _MODELS,
    make_error_model,
)
from repro.engine.aggregates import (
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
)
from repro.core.spec import QualityTarget
from repro.errors import ConfigurationError
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream

ALL_MODELS = [
    AdditiveMassModel(),
    MeanModel(),
    ExtremumModel(),
    RankModel(),
    DistinctModel(),
    NaiveModel(),
]

CONTEXTS = [
    StreamContext(dispersion=1.0, expected_window_count=100.0),
    StreamContext(dispersion=0.1, expected_window_count=10.0),
    StreamContext(dispersion=2.0, expected_window_count=math.nan),
    StreamContext.unknown(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
@pytest.mark.parametrize("context", CONTEXTS, ids=["c100", "c10", "cnan", "cunk"])
class TestModelInvariants:
    def test_monotone_in_late_fraction(self, model, context):
        errors = [
            model.error_from_late_fraction(p, context)
            for p in (0.0, 0.01, 0.1, 0.5, 1.0)
        ]
        assert errors == sorted(errors)

    def test_zero_late_fraction_zero_error(self, model, context):
        assert model.error_from_late_fraction(0.0, context) == 0.0

    def test_inverse_is_consistent(self, model, context):
        """error(invert(theta)) <= theta (up to clipping at p=1)."""
        for theta in (0.001, 0.01, 0.05, 0.2):
            p = model.late_fraction_for_error(theta, context)
            assert 0.0 <= p <= 1.0
            if p < 1.0:
                assert model.error_from_late_fraction(p, context) <= theta * 1.0001

    def test_inverse_monotone_in_theta(self, model, context):
        fractions = [
            model.late_fraction_for_error(theta, context)
            for theta in (0.001, 0.01, 0.1, 0.5)
        ]
        assert fractions == sorted(fractions)

    def test_invalid_late_fraction_rejected(self, model, context):
        with pytest.raises(ConfigurationError):
            model.error_from_late_fraction(1.5, context)

    def test_negative_theta_rejected(self, model, context):
        with pytest.raises(ConfigurationError):
            model.late_fraction_for_error(-0.1, context)


class TestModelSpecifics:
    def test_additive_error_equals_fraction(self):
        context = StreamContext.unknown()
        assert AdditiveMassModel().error_from_late_fraction(0.07, context) == 0.07

    def test_mean_model_shrinks_with_window_count(self):
        small = StreamContext(dispersion=1.0, expected_window_count=10.0)
        large = StreamContext(dispersion=1.0, expected_window_count=1000.0)
        model = MeanModel()
        assert model.error_from_late_fraction(0.1, large) < model.error_from_late_fraction(
            0.1, small
        )

    def test_mean_model_allows_more_lateness_for_large_windows(self):
        small = StreamContext(dispersion=1.0, expected_window_count=10.0)
        large = StreamContext(dispersion=1.0, expected_window_count=1000.0)
        model = MeanModel()
        assert model.late_fraction_for_error(
            0.01, large
        ) > model.late_fraction_for_error(0.01, small)

    def test_mean_model_zero_dispersion_allows_everything(self):
        context = StreamContext(dispersion=0.0, expected_window_count=100.0)
        assert MeanModel().late_fraction_for_error(0.01, context) == 1.0

    def test_extremum_scales_with_dispersion(self):
        calm = StreamContext(dispersion=0.1, expected_window_count=100.0)
        wild = StreamContext(dispersion=2.0, expected_window_count=100.0)
        model = ExtremumModel()
        assert model.error_from_late_fraction(0.1, wild) > model.error_from_late_fraction(
            0.1, calm
        )

    def test_rank_is_half_of_extremum(self):
        context = StreamContext(dispersion=1.0, expected_window_count=100.0)
        assert RankModel().error_from_late_fraction(
            0.2, context
        ) == pytest.approx(0.5 * ExtremumModel().error_from_late_fraction(0.2, context))


class TestMakeErrorModel:
    @pytest.mark.parametrize(
        "aggregate,model_cls",
        [
            (CountAggregate(), AdditiveMassModel),
            (MeanAggregate(), MeanModel),
            (MaxAggregate(), ExtremumModel),
            (MedianAggregate(), RankModel),
        ],
    )
    def test_from_aggregate(self, aggregate, model_cls):
        assert isinstance(make_error_model(aggregate), model_cls)

    def test_from_kind_name(self):
        assert isinstance(make_error_model("naive"), NaiveModel)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_error_model("bogus")

    def test_describe(self):
        assert make_error_model("mean").describe() == "mean"


class TestReadsDispersion:
    """``reads_dispersion`` is what the adaptive handler trusts when it
    skips the per-value dispersion tracker: it must match the model."""

    @pytest.mark.parametrize(
        "model", [m for m in ALL_MODELS if not m.reads_dispersion], ids=lambda m: m.kind
    )
    @given(
        p=st.floats(0.0, 1.0),
        theta=st.floats(0.0, 10.0),
        dispersions=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
        count=st.one_of(st.just(math.nan), st.floats(0.0, 1e6)),
    )
    def test_undeclared_dispersion_never_moves_the_model(
        self, model, p, theta, dispersions, count
    ):
        first, second = (
            StreamContext(dispersion=d, expected_window_count=count) for d in dispersions
        )
        assert model.error_from_late_fraction(p, first) == (
            model.error_from_late_fraction(p, second)
        )
        assert model.late_fraction_for_error(theta, first) == (
            model.late_fraction_for_error(theta, second)
        )

    @pytest.mark.parametrize(
        "model", [m for m in ALL_MODELS if m.reads_dispersion], ids=lambda m: m.kind
    )
    def test_declared_dispersion_moves_the_model(self, model):
        calm, wild = (
            StreamContext(dispersion=d, expected_window_count=100.0) for d in (0.1, 2.0)
        )
        assert model.error_from_late_fraction(0.1, calm) != (
            model.error_from_late_fraction(0.1, wild)
        )
        assert model.late_fraction_for_error(0.01, calm) != (
            model.late_fraction_for_error(0.01, wild)
        )

    def test_every_builtin_kind_is_covered(self):
        assert {model.kind for model in ALL_MODELS} == set(_MODELS)

    @pytest.mark.parametrize("fed", [True, False])
    def test_handler_feeds_the_tracker_only_for_a_reading_model(self, fed):
        class Undeclared(ErrorModel):
            kind = "undeclared"

            def error_from_late_fraction(self, p, context):
                return p

            def late_fraction_for_error(self, theta, context):
                return min(1.0, theta)

        model = Undeclared() if fed else AdditiveMassModel()
        rng = np.random.default_rng(7)
        stream = inject_disorder(
            generate_stream(duration=20, rate=50, rng=rng), ExponentialDelay(0.3), rng
        )
        handler = AQKSlackHandler(QualityTarget(0.05), model, window_size=5.0)
        for element in stream:
            handler.offer(element)
        handler._fold_pending()
        assert handler.adaptations
        assert handler.delay_sample.count == len(stream)
        assert handler._value_stats.count == (len(stream) if fed else 0)
