"""The paper's contribution: quality-driven adaptive disorder handling."""

from repro.core.aqk import AdaptationLog, AdaptationRecord, AQKSlackHandler
from repro.core.controller import (
    AIMDController,
    NoFeedbackController,
    PIController,
    PureFeedbackController,
    SlackController,
)
from repro.core.estimators import (
    AdditiveMassModel,
    DistinctModel,
    ErrorModel,
    ExtremumModel,
    MeanModel,
    NaiveModel,
    RankModel,
    StreamContext,
    make_error_model,
)
from repro.core.quality import (
    QualityReport,
    WindowScore,
    assess_quality,
    error_timeline,
)
from repro.core.sampling import (
    DelaySample,
    RateTracker,
    ReservoirSample,
    SlidingDelaySample,
    ValueStatsTracker,
    as_generator,
)
from repro.core.pair_quality import (
    QualityDrivenIntervalJoin,
    QualityDrivenSequencePattern,
)
from repro.core.spec import LatencyBudget, QualityTarget

__all__ = [
    "AIMDController",
    "AQKSlackHandler",
    "AdaptationLog",
    "AdaptationRecord",
    "AdditiveMassModel",
    "DelaySample",
    "DistinctModel",
    "ErrorModel",
    "ExtremumModel",
    "LatencyBudget",
    "MeanModel",
    "NaiveModel",
    "NoFeedbackController",
    "PIController",
    "PureFeedbackController",
    "QualityDrivenIntervalJoin",
    "QualityDrivenSequencePattern",
    "QualityReport",
    "QualityTarget",
    "RankModel",
    "RateTracker",
    "ReservoirSample",
    "SlackController",
    "SlidingDelaySample",
    "StreamContext",
    "ValueStatsTracker",
    "WindowScore",
    "as_generator",
    "assess_quality",
    "error_timeline",
    "make_error_model",
]
