"""Stream substrate: data model, delay models, disorder, generators, IO."""

from repro.streams.delay import (
    BurstyDelay,
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    GaussianDelay,
    LognormalDelay,
    MixtureDelay,
    ParetoDelay,
    RegimeSwitchingDelay,
    ShiftedDelay,
    UniformDelay,
    empirical_quantile,
)
from repro.streams.disorder import (
    DisorderStats,
    inject_disorder,
    inject_fifo_disorder,
    measure_disorder,
)
from repro.streams.element import StreamElement, ensure_arrival_order
from repro.streams.generators import (
    ConstantValues,
    GaussianValues,
    RandomWalkValues,
    SinusoidValues,
    SpikyValues,
    UniformValues,
    ValueProcess,
    generate_stream,
)
from repro.streams.io import read_trace, write_trace
from repro.streams.multisource import merge_streams
from repro.streams.timebase import times_equal

__all__ = [
    "BurstyDelay",
    "ConstantDelay",
    "ConstantValues",
    "DelayModel",
    "DisorderStats",
    "ExponentialDelay",
    "GaussianDelay",
    "GaussianValues",
    "LognormalDelay",
    "MixtureDelay",
    "ParetoDelay",
    "RandomWalkValues",
    "RegimeSwitchingDelay",
    "ShiftedDelay",
    "SinusoidValues",
    "SpikyValues",
    "StreamElement",
    "UniformDelay",
    "UniformValues",
    "ValueProcess",
    "empirical_quantile",
    "ensure_arrival_order",
    "generate_stream",
    "inject_disorder",
    "inject_fifo_disorder",
    "measure_disorder",
    "merge_streams",
    "read_trace",
    "times_equal",
    "write_trace",
]
