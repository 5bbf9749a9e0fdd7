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
from repro.engine.metrics import LatencySummary, RunMetrics, SlackSample
from repro.engine.multisource import MultiSourceWatermarkHandler
from repro.engine.operator import Operator, WindowResult
from repro.engine.oracle import oracle_results
from repro.engine.partial_tree import SharedSliceStore, run_shared_slices
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
from repro.engine.session_op import SessionAggregateOperator
from repro.engine.topk import ApproxTopKAggregate, TopKCountAggregate
from repro.engine.sketches import (
    ApproxDistinctAggregate,
    ApproxQuantileAggregate,
    HyperLogLog,
    P2Quantile,
    SpaceSaving,
)
from repro.engine.watermarks import (
    FixedLagWatermarkHandler,
    HeuristicWatermarkHandler,
    PerfectWatermarkHandler,
)
from repro.engine.windows import (
    SessionWindowMerger,
    SlidingWindowAssigner,
    TumblingWindowAssigner,
    Window,
    WindowAssigner,
    sliding,
    tumbling,
)

__all__ = [
    "AggregateFunction",
    "ApproxDistinctAggregate",
    "ApproxQuantileAggregate",
    "ApproxTopKAggregate",
    "CountAggregate",
    "DEFAULT_CHUNK_SIZE",
    "DisorderHandler",
    "DistinctCountAggregate",
    "EXECUTION_MODES",
    "FixedLagWatermarkHandler",
    "HeuristicWatermarkHandler",
    "HyperLogLog",
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
    "P2Quantile",
    "PairMatch",
    "PairMatchOperator",
    "PerfectWatermarkHandler",
    "ProcessShardExecutor",
    "QuantileAggregate",
    "RangeAggregate",
    "RunMetrics",
    "RunOutput",
    "SequencePatternOperator",
    "SessionAggregateOperator",
    "SessionWindowMerger",
    "ShardExecutor",
    "ShardRunner",
    "ShardSession",
    "ShardSpec",
    "ShardedHandlerView",
    "ShardedWindowOperator",
    "SharedSliceStore",
    "SlackSample",
    "SlidingWindowAssigner",
    "SortingBuffer",
    "SpaceSaving",
    "SpeculativeAggregateOperator",
    "StdDevAggregate",
    "SumAggregate",
    "TopKCountAggregate",
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
    "run_shared_slices",
    "save_checkpoint",
    "sliding",
    "stable_shard",
    "tumbling",
]
