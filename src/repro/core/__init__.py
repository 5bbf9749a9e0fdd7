"""The paper's contribution: quality-driven adaptive disorder handling."""

from repro.core.aqk import AdaptationRecord, AQKSlackHandler
from repro.core.calibration import (
    CalibratedErrorModel,
    CalibrationPoint,
    CalibrationResult,
    calibrate_error_model,
)
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
    P2DelayBank,
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
from repro.core.shared import SharedAQKBuffer, run_shared
from repro.core.spec import BoundedQualityTarget, LatencyBudget, QualityTarget

__all__ = [
    "AIMDController",
    "AQKSlackHandler",
    "AdaptationRecord",
    "AdditiveMassModel",
    "BoundedQualityTarget",
    "CalibratedErrorModel",
    "CalibrationPoint",
    "CalibrationResult",
    "DelaySample",
    "DistinctModel",
    "ErrorModel",
    "ExtremumModel",
    "LatencyBudget",
    "MeanModel",
    "NaiveModel",
    "NoFeedbackController",
    "P2DelayBank",
    "PIController",
    "PureFeedbackController",
    "QualityDrivenIntervalJoin",
    "QualityDrivenSequencePattern",
    "QualityReport",
    "QualityTarget",
    "RankModel",
    "RateTracker",
    "ReservoirSample",
    "SharedAQKBuffer",
    "SlackController",
    "SlidingDelaySample",
    "StreamContext",
    "ValueStatsTracker",
    "WindowScore",
    "as_generator",
    "assess_quality",
    "calibrate_error_model",
    "error_timeline",
    "make_error_model",
    "run_shared",
]
