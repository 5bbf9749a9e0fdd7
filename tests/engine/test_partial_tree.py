"""Tests for partial-aggregate tree execution and the shared slice store.

The contract is semantic equivalence with the naive reference: every
``test_tree_equals_naive_*`` test is one row of the mode-parity matrix
(``assert_modes_match_naive``: the slice store, scalar and batched, against
the scalar naive run; ``tests/engine/test_sliced_op.py`` holds the other
rows).  Tree-specific behavior (the in-order fold, O(log) patches, node
caching, GC bounds, trace events) is covered separately.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.aqk import AQKSlackHandler
from repro.core.spec import QualityTarget
from repro.engine.aggregate_op import (
    EXECUTION_MODES,
    WindowAggregateOperator,
    relative_error,
)
from repro.engine.aggregates import (
    CountAggregate,
    DistinctCountAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    SumAggregate,
    make_aggregate,
)
from repro.engine import partial_tree
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.partial_tree import (
    SharedSliceStore,
    _QueryWindowView,
    _SliceStore,
    _SliceTree,
    run_shared_slices,
)
from repro.engine.pipeline import run_pipeline
from repro.engine.topk import TopKCountAggregate
from repro.engine.windows import SlidingWindowAssigner, TumblingWindowAssigner
from repro.errors import ConfigurationError
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.conftest import assert_modes_match_naive as assert_equivalent
from tests.conftest import disordered_stream as make_stream
from tests.conftest import emitted_window_errors, nan_equal, result_map


def tree_operator(assigner, aggregate, handler, **options):
    return WindowAggregateOperator(assigner, aggregate, handler, mode="tree", **options)


# --------------------------------------------------------------------- #
# construction


def test_rejects_non_sliding_assigner():
    from repro.engine.windows import SessionWindowMerger

    with pytest.raises(ConfigurationError):
        tree_operator(
            SessionWindowMerger(gap=1.0), SumAggregate(), KSlackHandler(1.0)
        )


def test_rejects_non_divisible_slide():
    with pytest.raises(ConfigurationError):
        tree_operator(
            SlidingWindowAssigner(10, 3), SumAggregate(), KSlackHandler(1.0)
        )


def test_rejects_negative_feedback_horizon():
    with pytest.raises(ConfigurationError):
        tree_operator(
            SlidingWindowAssigner(10, 2),
            SumAggregate(),
            KSlackHandler(1.0),
            feedback_horizon=-1.0,
        )


def test_constructor_modes():
    def build(mode):
        return WindowAggregateOperator(
            SlidingWindowAssigner(10, 2), SumAggregate(), KSlackHandler(1.0), mode=mode
        )

    for mode in EXECUTION_MODES:
        operator = build(mode)
        assert type(operator) is WindowAggregateOperator
        assert operator.mode == mode
    assert EXECUTION_MODES == ("naive", "tree")
    with pytest.raises(ConfigurationError):
        build("bogus")
    with pytest.raises(ConfigurationError, match='use mode="tree"'):
        build("sliced")


# --------------------------------------------------------------------- #
# equivalence with the naive operator


@pytest.mark.parametrize("size,slide", [(10, 2), (8, 1), (5, 5), (4, 0.5)])
def test_tree_equals_naive_sliding(size, slide):
    rng = np.random.default_rng(11)
    stream = make_stream(rng)
    assert_equivalent(
        stream,
        SlidingWindowAssigner(size, slide),
        SumAggregate,
        lambda: KSlackHandler(1.0),
    )


@pytest.mark.parametrize(
    "aggregate_cls",
    [CountAggregate, SumAggregate, MeanAggregate, MinAggregate, MaxAggregate],
)
def test_tree_equals_naive_across_aggregates(aggregate_cls):
    rng = np.random.default_rng(12)
    stream = make_stream(rng)
    assert_equivalent(
        stream, SlidingWindowAssigner(10, 2), aggregate_cls, lambda: KSlackHandler(1.5)
    )


def test_tree_equals_naive_tumbling():
    rng = np.random.default_rng(13)
    stream = make_stream(rng)
    assert_equivalent(
        stream, TumblingWindowAssigner(5), SumAggregate, lambda: KSlackHandler(1.0)
    )


def test_tree_equals_naive_keyed():
    rng = np.random.default_rng(14)
    stream = make_stream(rng, keys=["a", "b", "c"])
    assert_equivalent(
        stream, SlidingWindowAssigner(10, 2), SumAggregate, lambda: KSlackHandler(1.0)
    )


def test_tree_equals_naive_no_buffering():
    rng = np.random.default_rng(15)
    stream = make_stream(rng, mean_delay=1.5)
    assert_equivalent(
        stream, SlidingWindowAssigner(10, 2), SumAggregate, NoBufferHandler
    )


def test_tree_equals_naive_with_aqk():
    rng = np.random.default_rng(16)
    stream = make_stream(rng, mean_delay=1.0)
    assert_equivalent(
        stream,
        SlidingWindowAssigner(10, 2),
        CountAggregate,
        lambda: AQKSlackHandler(
            target=QualityTarget(0.05),
            aggregate=make_aggregate("count"),
            window_size=10.0,
        ),
    )


def test_tree_matches_sliced_stats_and_errors():
    """Slice-store accounting against the reference (once: against the chain).

    Counters equal naive's; observed errors equal naive's over the windows
    it emitted.
    """
    rng = np.random.default_rng(17)
    stream = make_stream(rng, mean_delay=1.5)
    naive = WindowAggregateOperator(
        SlidingWindowAssigner(10, 2), CountAggregate(), KSlackHandler(0.5)
    )
    tree = tree_operator(
        SlidingWindowAssigner(10, 2), CountAggregate(), KSlackHandler(0.5)
    )
    recorder = TraceRecorder()
    run_pipeline(stream, naive, trace=recorder)
    run_pipeline(stream, tree)
    assert tree.stats.elements_in == naive.stats.elements_in
    assert tree.stats.results_out == naive.stats.results_out
    assert tree.stats.late_dropped == naive.stats.late_dropped
    naive_errors = emitted_window_errors(recorder)
    assert len(tree.stats.observed_errors) == len(naive_errors) > 0
    assert any(error > 0 for error in naive_errors)
    for a, b in zip(sorted(naive_errors), sorted(tree.stats.observed_errors)):
        assert (math.isnan(a) and math.isnan(b)) or a == b


# --------------------------------------------------------------------- #
# batched execution parity


@pytest.mark.parametrize("batch_size", [1, 7, 64, 512])
def test_batched_equals_scalar(batch_size):
    rng = np.random.default_rng(21)
    stream = make_stream(rng)

    def build():
        return tree_operator(
            SlidingWindowAssigner(10, 2), SumAggregate(), KSlackHandler(1.0)
        )

    scalar_op, batched_op = build(), build()
    scalar = run_pipeline(stream, scalar_op).results
    batched = run_pipeline(stream, batched_op, batch_size=batch_size).results
    assert [(r.key, r.window, r.count, r.flushed) for r in scalar] == [
        (r.key, r.window, r.count, r.flushed) for r in batched
    ]
    for a, b in zip(scalar, batched):
        assert a.value == b.value or abs(a.value - b.value) <= 1e-9 * max(
            1.0, abs(a.value)
        )
    assert batched_op.stats.late_dropped == scalar_op.stats.late_dropped
    assert len(batched_op.stats.observed_errors) == len(scalar_op.stats.observed_errors)


# --------------------------------------------------------------------- #
# tree internals: patches, caching, GC


def test_in_order_stream_never_patches():
    elements = [
        StreamElement(event_time=i * 0.1, value=1.0, arrival_time=i * 0.1, seq=i)
        for i in range(500)
    ]
    operator = tree_operator(
        SlidingWindowAssigner(4, 0.5), CountAggregate(), NoBufferHandler()
    )
    run_pipeline(elements, operator)
    assert operator.patch_count == 0


def test_late_elements_patch_logarithmically():
    rng = np.random.default_rng(31)
    stream = make_stream(rng, mean_delay=2.0)
    span = int(round(8 / 0.5))
    operator = tree_operator(
        SlidingWindowAssigner(8, 0.5), CountAggregate(), KSlackHandler(0.25)
    )
    run_pipeline(stream, operator)
    assert operator.patch_count > 0
    # The patch path is bounded by the tree height over the window span.
    assert operator.max_patch_depth <= math.ceil(math.log2(span)) + 1


def test_interior_nodes_are_cached_and_reused():
    elements = [
        StreamElement(event_time=i * 0.01, value=1.0, arrival_time=i * 0.01, seq=i)
        for i in range(2000)
    ]
    operator = tree_operator(
        SlidingWindowAssigner(6.4, 0.1),
        CountAggregate(),
        NoBufferHandler(),
        track_feedback=False,
    )
    run_pipeline(elements, operator)
    windows = operator.stats.results_out
    span = 64
    # Without caching every window would recompute ~span interior nodes;
    # with caching the whole run stays well under one span's worth per
    # window.
    assert operator.recompute_count < windows * math.ceil(math.log2(span)) * 2


def test_gc_bounds_retained_state():
    elements = [
        StreamElement(event_time=i * 0.01, value=1.0, arrival_time=i * 0.01, seq=i)
        for i in range(5000)
    ]
    operator = tree_operator(
        SlidingWindowAssigner(2, 0.25),
        CountAggregate(),
        NoBufferHandler(),
        feedback_horizon=4.0,
    )
    run_pipeline(elements, operator)
    # 50s of stream, 0.25s slices, horizon 4s + window 2s: far fewer than
    # the ~200 slices the full stream would retain without GC.
    assert operator.slice_count() < 60
    assert operator.node_count() < 120


def test_tree_trace_events():
    rng = np.random.default_rng(32)
    stream = make_stream(rng, mean_delay=1.5)
    operator = tree_operator(
        SlidingWindowAssigner(8, 0.5), CountAggregate(), KSlackHandler(0.25)
    )
    recorder = TraceRecorder(detail=True)
    run_pipeline(stream, operator, trace=recorder)
    patches = list(recorder.of_kind("tree.patch"))
    assembles = list(recorder.of_kind("tree.assemble"))
    assert len(patches) == operator.patch_count
    assert assembles, "detail mode records per-window assembly"
    for event in patches:
        assert event.fields["depth"] >= 1
    for event in assembles:
        assert event.fields["nodes"] >= 0
    # Traced run emits identical results to an untraced one.
    untraced = tree_operator(
        SlidingWindowAssigner(8, 0.5), CountAggregate(), KSlackHandler(0.25)
    )
    assert result_map(run_pipeline(stream, untraced).results) == result_map(
        run_pipeline(stream, tree_operator(
            SlidingWindowAssigner(8, 0.5), CountAggregate(), KSlackHandler(0.25)
        )).results
    )


# --------------------------------------------------------------------- #
# lateness verdict and retirement


def full_walk_late_count(view, slice_index):
    """The verdict as a walk over every window containing the slice."""
    late = 0
    for offset in range(view.span):
        end = (slice_index + 1 + offset) * view.tree.slide
        if end <= view.close_frontier and end - view.size >= 0:
            late += 1
    return late


@pytest.mark.parametrize("slide, span", [(1.0, 4), (0.125, 64), (0.1, 7), (1 / 3, 3)])
def test_late_count_stops_early_with_the_full_walks_count(slide, span):
    rng = np.random.default_rng(5)
    size = slide * span
    view = _QueryWindowView(_SliceTree(CountAggregate(), slide, span), size, span, 5 * size, True)
    frontiers = [-math.inf, math.inf, 0.0, size, *rng.uniform(-2 * size, 40 * size, 200)]
    for frontier in frontiers:
        view.close_frontier = frontier
        around = int(frontier / slide) if math.isfinite(frontier) else 0
        for slice_index in [*range(around - span - 2, around + 3), *rng.integers(-5, 500, 20)]:
            assert view.late_count(slice_index) == full_walk_late_count(view, slice_index)


class MergeCountingSum(SumAggregate):
    """Counts the merges it is asked to do."""

    def __init__(self):
        self.merges = 0

    def merge(self, accumulator, other):
        self.merges += 1
        return super().merge(accumulator, other)


def slice_store(tree_class, aggregate, horizon=2.0):
    """Size 4, slide 1: window ``[s, s + 4)`` is slices ``s .. s + 3``."""
    return _SliceStore(tree_class(aggregate, 1.0, 4), 4.0, 4, horizon, True)


def unit_element(event_time, seq=0):
    return StreamElement(event_time=event_time, value=1.0, seq=seq)


@pytest.mark.parametrize("tree_class", [_SliceTree])
def test_untouched_window_retires_without_a_merge(tree_class):
    aggregate = MergeCountingSum()
    store = slice_store(tree_class, aggregate)
    for slice_index in range(4):
        store.stage(unit_element(slice_index + 0.5), 0.0)
    store.flush()
    (closed,) = store.close(4.0, 0.0, False)
    assert (closed.window.start, closed.value) == (0.0, 4.0)
    assert aggregate.merges > 0
    aggregate.merges = 0
    errors = []
    store.retire(6.0, 0.0, errors.append)
    assert errors == store.stats.observed_errors == [0.0]
    assert aggregate.merges == 0


@pytest.mark.parametrize("tree_class", [_SliceTree])
def test_window_patched_after_its_close_is_reassembled(tree_class):
    aggregate = MergeCountingSum()
    store = slice_store(tree_class, aggregate)
    for slice_index in range(4):
        store.stage(unit_element(slice_index + 0.5), 0.0)
    store.flush()
    store.close(4.0, 0.0, False)
    store.stage(unit_element(2.25), 0.0)  # late for [0, 4), the only closed window
    store.flush()
    assert store.stats.late_dropped == 1
    aggregate.merges = 0
    errors = []
    store.retire(6.0, 0.0, errors.append)
    assert errors == [relative_error(4.0, 5.0)] and errors[0] > 0
    assert aggregate.merges > 0


@pytest.mark.parametrize("tree_class", [_SliceTree])
def test_late_slice_shared_by_retiring_and_retained_windows(tree_class):
    aggregate = MergeCountingSum()
    store = slice_store(tree_class, aggregate)
    for slice_index in range(9):
        store.stage(unit_element(slice_index + 0.5), 0.0)
    store.flush()
    assert [r.window.start for r in store.close(5.0, 0.0, False)] == [0.0, 1.0]
    # Slice 3: late for [0, 4) and [1, 5), on time for [2, 6) and [3, 7).
    store.stage(unit_element(3.75), 0.0)
    store.flush()
    assert store.stats.late_dropped == 2
    errors = []
    store.retire(6.0, 0.0, errors.append)  # retires [0, 4); [1, 5) stays
    assert errors == [relative_error(4.0, 5.0)]
    assert [r.value for r in store.close(7.0, 0.0, False)] == [5.0, 5.0]
    store.retire(7.0, 0.0, errors.append)  # retires [1, 5): the mark survived
    assert errors[1:] == [relative_error(4.0, 5.0)]
    # [2, 6) and [3, 7) hold the marked slice but emitted with it: they are
    # re-assembled to the value they emitted.
    store.retire(9.0, 0.0, errors.append)
    assert errors[2:] == [0.0, 0.0]
    # [4, 8) lies past the mark, which is spent: no merge, no mark left.
    store.close(8.0, 0.0, False)
    aggregate.merges = 0
    store.retire(10.0, 0.0, errors.append)
    assert errors[4:] == [0.0]
    assert aggregate.merges == 0
    assert store._late == {}


def test_in_order_close_is_one_merge_and_caches_no_node():
    """Overlap 64, three keys, nothing late: the fold serves every window.

    Per window one merge at the close, one per slice for the prefix and two
    per slice for the suffix (amortized over the block's windows); late
    elements for one key then send that key alone through the node cache.
    """
    span, slide = 64, 0.125
    keys = ("a", "b", "c")
    aggregate = MergeCountingSum()
    operator = tree_operator(
        SlidingWindowAssigner(span * slide, slide), aggregate, NoBufferHandler()
    )
    elements = [
        StreamElement(
            event_time=(index + 0.5) * slide, value=1.0, key=key,
            arrival_time=(index + 0.5) * slide, seq=index * len(keys) + offset,
        )
        for index in range(6 * span)
        for offset, key in enumerate(keys)
    ]
    emitted = sum(len(operator.process(element)) for element in elements)
    assert emitted == (5 * span) * len(keys)
    assert aggregate.merges <= 4 * emitted + 2 * span * len(keys)
    assert operator.node_count() == 0
    assert operator.patch_count == operator.recompute_count == 0
    # Slices behind the close frontier, still inside "b"'s open windows.
    last = 6 * span - 1
    for seq, back in enumerate((3, 20, 40), start=len(elements)):
        late = StreamElement(
            event_time=(last - back + 0.5) * slide, value=1.0, key="b",
            arrival_time=(last + 0.75) * slide, seq=seq,
        )
        assert operator.process(late) == []
    operator.process(
        StreamElement(
            event_time=(last + 1.5) * slide, value=1.0, key="b",
            arrival_time=(last + 1.5) * slide, seq=seq + 1,
        )
    )
    cached_for = {key for key, __, __ in operator._store.tree._nodes}
    assert cached_for == {"b"}


def test_slice_late_for_windows_all_retired_leaves_no_mark():
    store = slice_store(_SliceTree, SumAggregate())
    for slice_index in range(12):
        store.stage(unit_element(slice_index + 0.5), 0.0)
    store.flush()
    store.close(12.0, 0.0, False)
    store.retire(12.0, 0.0, lambda error: None)  # retires every end <= 10
    store.stage(unit_element(5.5), 0.0)  # its last window, [5, 9), is gone
    store.flush()
    assert store.stats.late_dropped == 4
    assert store._late == {}
    store.stage(unit_element(7.5), 0.0)  # [7, 11) is still retained
    store.flush()
    assert store._late == {None: [7]}


# --------------------------------------------------------------------- #
# shared slice store


def test_shared_store_registration_errors():
    store = SharedSliceStore(2.0, CountAggregate())
    with pytest.raises(ConfigurationError):
        store.register("q", 7.0, slack=1.0)  # slide does not divide size
    with pytest.raises(ConfigurationError):
        store.register("q", 10.0)  # neither slack nor advisor
    with pytest.raises(ConfigurationError):
        store.register("q", 10.0, slack=1.0, advisor=object())  # both
    with pytest.raises(ConfigurationError):
        store.register("q", 10.0, advisor=object())  # not a SlackHandler
    store.register("q", 10.0, slack=1.0)
    with pytest.raises(ConfigurationError):
        store.register("q", 10.0, slack=1.0)  # duplicate id
    with pytest.raises(ConfigurationError):
        SharedSliceStore(0.0, CountAggregate())


def test_shared_store_requires_registration_before_offer():
    store = SharedSliceStore(2.0, CountAggregate())
    element = StreamElement(event_time=0.0, value=1.0, arrival_time=0.0, seq=0)
    with pytest.raises(ConfigurationError):
        store.offer(element)
    store.register("q", 10.0, slack=1.0)
    store.offer(element)
    with pytest.raises(ConfigurationError):
        store.register("late", 10.0, slack=1.0)


def test_shared_store_matches_private_pipelines_fixed_slack():
    rng = np.random.default_rng(41)
    stream = make_stream(rng, mean_delay=1.0)
    store = SharedSliceStore(2.0, CountAggregate())
    configs = [("q8", 8.0, 2.0), ("q16", 16.0, 0.5), ("q10", 10.0, 1.0)]
    for qid, size, slack in configs:
        store.register(qid, size, slack=slack)
    shared = run_shared_slices(stream, store)
    for qid, size, slack in configs:
        solo = tree_operator(
            SlidingWindowAssigner(size, 2.0), CountAggregate(), KSlackHandler(slack)
        )
        solo_results = run_pipeline(stream, solo).results
        assert result_map(shared[qid]) == result_map(solo_results)
        assert store.stats_for(qid).late_dropped == solo.stats.late_dropped
        # Views mark late slices on the shared offer path as a private
        # store does on add: same corrections, in the same order.
        errors = store.stats_for(qid).observed_errors
        assert errors == solo.stats.observed_errors
        assert any(error > 0 for error in errors)


def test_shared_store_matches_private_pipelines_aqk():
    rng = np.random.default_rng(42)
    stream = make_stream(rng, mean_delay=1.0)
    thetas = [0.02, 0.05, 0.2]
    store = SharedSliceStore(2.0, CountAggregate())
    for theta in thetas:
        advisor = AQKSlackHandler(
            target=QualityTarget(theta),
            aggregate=make_aggregate("count"),
            window_size=10.0,
        )
        store.register(f"q{theta}", 10.0, advisor=advisor)
    shared = run_shared_slices(stream, store)
    for theta in thetas:
        handler = AQKSlackHandler(
            target=QualityTarget(theta),
            aggregate=make_aggregate("count"),
            window_size=10.0,
        )
        solo = tree_operator(
            SlidingWindowAssigner(10.0, 2.0), CountAggregate(), handler
        )
        solo_results = run_pipeline(stream, solo).results
        assert result_map(shared[f"q{theta}"]) == result_map(solo_results)


def test_elements_after_finish_are_late_not_an_error():
    # Once a view's close frontier is infinite there is no "first end above
    # the frontier" to clamp a new, idle or rewound key to.
    def element(t, key, seq):
        return StreamElement(event_time=t, value=1.0, arrival_time=t, seq=seq, key=key)

    store = SharedSliceStore(2.0, CountAggregate())
    store.register("done", 4.0, slack=0.0)
    store.register("live", 4.0, slack=0.0)
    for seq, t in enumerate([1.0, 3.0, 5.0, 9.0]):
        store.offer(element(t, "a", seq))
    store.finish_query("done")
    emitted = len(store.results["done"])
    dropped = store.stats_for("done").late_dropped
    live_before = len(store.results["live"])
    # a new key, a known key ahead of its range, a known key behind it
    for seq, (t, key) in enumerate([(11.0, "b"), (13.0, "a"), (0.5, "a")], start=4):
        store.offer(element(t, key, seq))
    assert len(store.results["done"]) == emitted
    assert store.stats_for("done").late_dropped > dropped
    assert len(store.results["live"]) > live_before

    operator = tree_operator(
        SlidingWindowAssigner(4.0, 2.0), CountAggregate(), NoBufferHandler()
    )
    for seq, t in enumerate([1.0, 3.0, 5.0]):
        operator.process(element(t, "a", seq))
    operator.finish()
    dropped = operator.stats.late_dropped
    assert operator.process(element(7.0, "b", 3)) == []
    assert operator.process_many([element(9.0, "c", 4), element(0.5, "a", 5)]) == []
    assert operator.stats.late_dropped > dropped


def test_shared_store_single_tree_memory():
    rng = np.random.default_rng(43)
    stream = make_stream(rng)
    store = SharedSliceStore(2.0, CountAggregate(), track_feedback=False)
    for i, size in enumerate([8.0, 10.0, 16.0, 20.0]):
        store.register(f"q{i}", size, slack=1.0)
    run_shared_slices(stream, store)
    # One shared tree: retained slices scale with the widest window, not
    # with the number of queries.
    assert store.slice_count() <= 16


# --------------------------------------------------------------------- #
# builder and CLI wiring


def test_query_builder_mode_tree():
    from repro.queries.language import ContinuousQuery

    rng = np.random.default_rng(51)
    stream = make_stream(rng)

    def build(mode):
        return (
            ContinuousQuery()
            .from_elements(stream)
            .window(SlidingWindowAssigner(10, 2))
            .aggregate("count")
            .with_slack(1.0)
            .mode(mode)
            .run()
        )

    naive = build("naive")
    tree = build("tree")
    assert tree.operator.mode == "tree"
    assert result_map(naive.results) == result_map(tree.results)
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        ContinuousQuery().mode("bogus")


def test_query_builder_sliced_alias():
    """The removed mode is no alias: the builder points at the survivor."""
    from repro.queries.language import ContinuousQuery

    with pytest.raises(ConfigurationError, match='use mode="tree"'):
        ContinuousQuery().mode("sliced")
    assert ContinuousQuery()._mode == "naive"


def test_distinct_count_bit_identical_under_disorder():
    rng = np.random.default_rng(52)
    base = generate_stream(duration=60, rate=50, rng=rng)
    spiky = [
        StreamElement(
            event_time=el.event_time,
            value=float(int(el.value * 10)),
            key=el.key,
            seq=el.seq,
        )
        for el in base
    ]
    stream = inject_disorder(spiky, ExponentialDelay(2.0), rng)
    naive = WindowAggregateOperator(
        SlidingWindowAssigner(10, 2), DistinctCountAggregate(), KSlackHandler(0.5)
    )
    tree = tree_operator(
        SlidingWindowAssigner(10, 2), DistinctCountAggregate(), KSlackHandler(0.5)
    )
    naive_map = result_map(run_pipeline(stream, naive).results)
    tree_map = result_map(run_pipeline(stream, tree).results)
    assert naive_map == tree_map


# --------------------------------------------------------------------- #
# state layout: slice rows, the retirement queue, the pending heap


@pytest.mark.parametrize(
    "aggregate, values",
    [
        (SumAggregate(), [1e308, 1e308]),  # overflows to inf: a plain float, value check only
        (SumAggregate(), [1.0, math.nan]),
        (MaxAggregate(), [3, 7]),  # an int payload comes back an int
        (MaxAggregate(), [np.float64(2.5)]),  # a float subclass, like the shards' _Partial
        (TopKCountAggregate(2), [3.0, 3.0, 5.0]),  # a tuple
    ],
    ids=["inf", "nan", "int", "numpy", "tuple"],
)
def test_unmarked_window_retires_with_relative_error_of_its_value(
    monkeypatch, aggregate, values
):
    """An untouched window scores ``relative_error(v, v)`` whatever ``v`` is;
    only a plain float gets there without the call."""
    scored = []

    def spy(emitted, corrected):
        scored.append((emitted, corrected))
        return relative_error(emitted, corrected)

    monkeypatch.setattr(partial_tree, "relative_error", spy)
    store = slice_store(_SliceTree, aggregate)
    for seq, value in enumerate(values):
        store.stage(StreamElement(event_time=seq + 0.5, value=value, seq=seq), 0.0)
    store.flush()
    store.stage(unit_element(5.5, seq=9), 0.0)  # a plain float, for contrast
    store.flush()
    results = store.close(9.0, 0.0, False)
    first, second = results[0], results[-1]
    assert (first.window.start, second.window.start) == (0.0, 5.0)
    errors = []
    store.retire(12.0, 0.0, errors.append)
    assert errors == store.stats.observed_errors
    assert errors[0] == relative_error(first.value, first.value)
    if type(first.value) is not float:  # int, float subclass, tuple: through the call
        assert nan_equal(scored[0], (first.value, first.value))
    # ... and the plain float windows of the same key were not sent through it.
    if type(second.value) is float:
        assert all(emitted is not second.value for emitted, __ in scored)
        assert errors[-1] == 0.0


def jump_stream():
    """Three keys, a frontier jump of six slides, a late element, a tail."""
    times = [(t + 0.5, key) for t in range(4) for key in ("c", "a", "b")]
    times += [(9.5, "a"), (2.25, "b"), (9.75, "c"), (10.5, "b"), (7.5, "c"),
              (16.5, "a"), (17.5, "b")]
    return [
        StreamElement(
            event_time=t, value=float(seq + 1), key=key, arrival_time=20.0 + seq, seq=seq
        )
        for seq, (t, key) in enumerate(times)
    ]


#: ``(key, window end)`` of the ``window.retire`` records of ``jump_stream``
#: under ``sliding(4, 1)`` / ``NoBufferHandler`` / horizon 2, from the commit
#: that still retired through a ``(end, seq)`` heap.
JUMP_RETIREMENTS = [
    ("c", 4), ("a", 4), ("b", 4), ("c", 5), ("a", 5), ("b", 5), ("c", 6), ("a", 6),
    ("b", 6), ("c", 7), ("a", 7), ("b", 7), ("a", 10), ("c", 10), ("a", 11), ("c", 11),
    ("b", 11), ("a", 12), ("c", 12), ("b", 12), ("a", 13), ("c", 13), ("b", 13),
    ("b", 14), ("a", 17), ("a", 18), ("b", 18), ("a", 19), ("b", 19), ("a", 20),
    ("b", 20), ("b", 21),
]


@pytest.mark.parametrize("batch_size", [0, 64])
def test_windows_retire_in_end_order_with_ties_in_emission_order(batch_size):
    """One close emitting several ends per key (a frontier jump, and the
    ``finish`` flush) emits key by key but retires end by end."""
    operator = tree_operator(
        SlidingWindowAssigner(4, 1), SumAggregate(), NoBufferHandler(), feedback_horizon=2.0
    )
    recorder = TraceRecorder()
    results = run_pipeline(
        jump_stream(), operator, batch_size=batch_size, trace=recorder
    ).results
    emitted = [(r.key, r.window.end) for r in results]
    assert emitted[:8] == [("c", end) for end in (4, 5, 6, 7)] + [
        ("a", end) for end in (4, 5, 6, 7)
    ]
    retired = [
        (event.fields["key"], event.fields["end"])
        for event in recorder.of_kind("window.retire")
    ]
    assert retired == JUMP_RETIREMENTS
    assert retired == sorted(emitted, key=lambda pair: pair[1])  # stable: ties as emitted
    errors = operator.stats.observed_errors
    assert errors == [0.53125 if pair == ("c", 10) else 0.0 for pair in retired]


def test_rewound_key_leaves_no_duplicate_in_the_pending_heap():
    """A rewind pushes a fresh scheduling entry; the one it replaces must
    die when it pops, not re-queue itself at every later close."""
    store = SharedSliceStore(1.0, make_aggregate("sum"))
    view = store.register("q", size=4.0, slack=100.0)
    times = [(10.5, 11.0), (8.5, 11.1), (6.5, 11.2)]  # each one rewinds "a"
    times += [(13.0 + i, 13.1 + i) for i in range(300)]
    for seq, (event_time, arrival_time) in enumerate(times):
        store.offer(
            StreamElement(
                event_time=event_time, value=1.0, key="a",
                arrival_time=arrival_time, seq=seq,
            )
        )
        if seq == 2:
            assert len(view._pending) == 3
    assert len(store.results["q"]) == 206
    assert len(view._pending) == 1
    # Three pushes for the rewinds, then one per frontier crossing (206
    # emitting closes; the stale entries pop once each and are dropped).
    assert view._heap_seq == 209


def rewind_scenario(seed):
    """150 elements over three keys, one in five 2-9 s behind its arrival:
    out of order under a slack of 6 (rewinds), late under 1.5."""
    rng = np.random.default_rng(seed)
    n = 150
    arrivals = np.cumsum(rng.exponential(0.4, n))
    delays = np.where(rng.random(n) < 0.2, rng.uniform(2.0, 9.0, n), rng.exponential(0.3, n))
    keys = rng.choice(["a", "b", "c"], n)
    return [
        StreamElement(
            event_time=float(max(arrival - delay, 0.0)), value=float(rng.integers(1, 10)),
            key=str(key), arrival_time=float(arrival), seq=seq,
        )
        for seq, (arrival, delay, key) in enumerate(zip(arrivals, delays, keys))
    ]


def test_rewind_scenarios_emit_and_score_as_before_the_pending_fix():
    """200 seeded multi-key rewind scenarios over two queries: result lists
    (order included), observed errors and late drops hash to the digest
    taken at the commit whose stale entries still re-queued themselves."""
    digest = hashlib.sha256()
    for seed in range(200):
        store = SharedSliceStore(1.0, make_aggregate("sum"))
        store.register("narrow", size=4.0, slack=1.5)
        store.register("wide", size=8.0, slack=6.0)
        run_shared_slices(rewind_scenario(seed), store)
        for query_id in ("narrow", "wide"):
            stats = store.stats_for(query_id)
            rows = [
                (r.key, r.window.start, r.window.end, r.value, r.count, r.emit_time, r.flushed)
                for r in store.results[query_id]
            ]
            digest.update(repr((rows, stats.observed_errors, stats.late_dropped)).encode())
    assert digest.hexdigest() == (
        "1fd8c3d216f34929c29fde94efcdd70226d988f1faa8e20bd585ff3aa4636ff6"
    )


def test_key_explosion_costs_one_gc_entry_per_slice_row():
    """5,000 one-shot keys over 50 slices: the GC heap holds live slice
    indices, never keys x slices, and everything goes once the frontier
    is past the last expiry."""
    operator = tree_operator(
        SlidingWindowAssigner(4, 1), CountAggregate(), KSlackHandler(1.0)
    )
    tree = operator._store.tree
    horizon = 5.0 * 4  # the operator's default feedback horizon
    widest = 0
    for seq in range(5000):
        operator.process(
            StreamElement(
                event_time=seq * 0.01, value=1.0, key=f"k{seq}",
                arrival_time=seq * 0.01, seq=seq,
            )
        )
        assert sorted(tree._slice_gc) == sorted(tree._slices)
        assert len(tree._slice_gc) <= 4 + horizon / 1 + 2
        widest = max(widest, operator.slice_count())
    assert widest > 2000  # one entry per key, in a couple of dozen rows
    operator.finish()
    assert operator.slice_count() == 0
    assert tree._slice_gc == [] and tree._slices == {}


def test_shared_row_outlives_the_narrow_query_until_the_wide_one_passes():
    store = SharedSliceStore(1.0, CountAggregate(), track_feedback=False)
    store.register("narrow", 4.0, slack=0.0)
    store.register("wide", 8.0, slack=0.0)
    tree = store._tree

    def offer(seq, event_time):
        store.offer(
            StreamElement(event_time=event_time, value=1.0, arrival_time=event_time, seq=seq)
        )

    for seq, event_time in enumerate([0.5, 4.5, 7.5]):
        offer(seq, event_time)
    assert [r.window.end for r in store.results["narrow"]] == [4.0, 5.0, 6.0, 7.0]
    assert store.results["wide"] == []
    assert 0 in tree._slices  # no narrow window reads row 0 any more; [0, 8) does
    offer(3, 8.0)
    assert [r.window.end for r in store.results["wide"]] == [8.0]
    assert 0 not in tree._slices and tree._slice_gc[0] == 4


HASH_SEED_SCRIPT = """
import hashlib
import numpy as np
from repro import ContinuousQuery, sliding
from repro.obs.trace import TraceRecorder
from repro.streams import (
    ExponentialDelay, MixtureDelay, ParetoDelay, generate_stream, inject_disorder,
)
rng = np.random.default_rng(1)
stream = inject_disorder(
    generate_stream(duration=200, rate=40, rng=rng, keys=("a", "b", "c", None)),
    MixtureDelay([(0.9, ExponentialDelay(0.3)), (0.1, ParetoDelay(shape=1.5, scale=1.0))]),
    rng,
)
recorder = TraceRecorder()
run = (
    ContinuousQuery().from_elements(stream).window(sliding(4, 1)).aggregate("sum")
    .mode("tree").with_slack(0.7).run(trace=recorder)
)
digest = hashlib.sha256()
for event in recorder.events:
    fields = {k: v for k, v in event.fields.items() if k != "wall_time_s"}
    digest.update(repr((event.kind, event.sim_time, sorted(fields.items()))).encode())
operator = run.operator
print(digest.hexdigest(), operator.patch_count, operator.max_patch_depth)
"""


def test_traced_run_does_not_depend_on_the_hash_seed():
    """``tree.patch`` records follow first-touched order, not set iteration:
    two interpreters with different hash seeds record the same trace."""
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1]
    assert int(outputs[0][1]) > 0  # the stream does patch cached nodes
