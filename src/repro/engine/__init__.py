"""Continuous-query engine: operators, windows, aggregates, disorder handling."""

from repro.engine.aggregate_op import (
    EXECUTION_MODES,
    OperatorStats,
    WindowAggregateOperator,
    relative_error,
)
from repro.engine.aggregates import (
    AggregateFunction,
    CountAggregate,
    DistinctCountAggregate,
    MaxAggregate,
    MeanAggregate,
    MedianAggregate,
    MinAggregate,
    QuantileAggregate,
    RangeAggregate,
    StdDevAggregate,
    SumAggregate,
    make_aggregate,
)
from repro.engine.buffer import SortingBuffer
from repro.engine.handlers import (
    DisorderHandler,
    KSlackHandler,
    MPKSlackHandler,
    NoBufferHandler,
)
from repro.engine.metrics import LatencySummary, RunMetrics
from repro.engine.operator import Operator, WindowResult
from repro.engine.oracle import oracle_results
from repro.engine.parallel import (
    DEFAULT_CHUNK_SIZE,
    ShardExecutor,
    ShardRunner,
    ShardSession,
    ShardSpec,
    ShardedHandlerView,
    ShardedWindowOperator,
    stable_shard,
)
from repro.engine.process_pool import (
    ProcessShardExecutor,
    decode_chunk,
    encode_chunk,
)
from repro.engine.pipeline import RunOutput, run_pipeline
from repro.engine.retraction import (
    SpeculativeAggregateOperator,
    final_values,
    initial_latencies,
)
from repro.engine.checkpoint import load_checkpoint, save_checkpoint
from repro.engine.pairs import (
    IntervalJoinOperator,
    PairMatch,
    PairMatchOperator,
    SequencePatternOperator,
    oracle_pairs,
    pair_recall,
)
from repro.engine.watermarks import (
    FixedLagWatermarkHandler,
    HeuristicWatermarkHandler,
    MultiSourceWatermarkHandler,
)
from repro.engine.windows import (
    SlidingWindowAssigner,
    TumblingWindowAssigner,
    Window,
    WindowAssigner,
    sliding,
    tumbling,
)

__all__ = [
    "AggregateFunction",
    "CountAggregate",
    "DEFAULT_CHUNK_SIZE",
    "DisorderHandler",
    "DistinctCountAggregate",
    "EXECUTION_MODES",
    "FixedLagWatermarkHandler",
    "HeuristicWatermarkHandler",
    "IntervalJoinOperator",
    "KSlackHandler",
    "LatencySummary",
    "MPKSlackHandler",
    "MaxAggregate",
    "MeanAggregate",
    "MedianAggregate",
    "MinAggregate",
    "MultiSourceWatermarkHandler",
    "NoBufferHandler",
    "Operator",
    "OperatorStats",
    "PairMatch",
    "PairMatchOperator",
    "ProcessShardExecutor",
    "QuantileAggregate",
    "RangeAggregate",
    "RunMetrics",
    "RunOutput",
    "SequencePatternOperator",
    "ShardExecutor",
    "ShardRunner",
    "ShardSession",
    "ShardSpec",
    "ShardedHandlerView",
    "ShardedWindowOperator",
    "SlidingWindowAssigner",
    "SortingBuffer",
    "SpeculativeAggregateOperator",
    "StdDevAggregate",
    "SumAggregate",
    "TumblingWindowAssigner",
    "Window",
    "WindowAggregateOperator",
    "WindowAssigner",
    "WindowResult",
    "decode_chunk",
    "encode_chunk",
    "final_values",
    "initial_latencies",
    "load_checkpoint",
    "make_aggregate",
    "oracle_pairs",
    "oracle_results",
    "pair_recall",
    "relative_error",
    "run_pipeline",
    "save_checkpoint",
    "sliding",
    "stable_shard",
    "tumbling",
]
