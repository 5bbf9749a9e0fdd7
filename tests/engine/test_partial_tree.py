"""Tests for partial-aggregate tree execution and the shared slice store.

The contract is semantic equivalence with the naive reference: every
``test_tree_equals_naive_*`` test is one row of the mode-parity matrix
(``assert_modes_match_naive``: the slice store, scalar and batched, against
the scalar naive run; ``tests/engine/test_sliced_op.py`` holds the other
rows).  Tree-specific behavior (the in-order fold, O(log) patches, node
caching, GC bounds, trace events) is covered separately.
"""

import math

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
from repro.engine.handlers import KSlackHandler, NoBufferHandler
from repro.engine.partial_tree import (
    SharedSliceStore,
    _QueryWindowView,
    _SliceStore,
    _SliceTree,
    run_shared_slices,
)
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner, TumblingWindowAssigner
from repro.errors import ConfigurationError
from repro.obs.trace import TraceRecorder
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream
from tests.conftest import assert_modes_match_naive as assert_equivalent
from tests.conftest import disordered_stream as make_stream
from tests.conftest import emitted_window_errors, result_map


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
        store.add(unit_element(slice_index + 0.5), 0.0)
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
        store.add(unit_element(slice_index + 0.5), 0.0)
    store.close(4.0, 0.0, False)
    store.add(unit_element(2.25), 0.0)  # late for [0, 4), the only closed window
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
        store.add(unit_element(slice_index + 0.5), 0.0)
    assert [r.window.start for r in store.close(5.0, 0.0, False)] == [0.0, 1.0]
    # Slice 3: late for [0, 4) and [1, 5), on time for [2, 6) and [3, 7).
    store.add(unit_element(3.75), 0.0)
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
        store.add(unit_element(slice_index + 0.5), 0.0)
    store.close(12.0, 0.0, False)
    store.retire(12.0, 0.0, lambda error: None)  # retires every end <= 10
    store.add(unit_element(5.5), 0.0)  # its last window, [5, 9), is gone
    assert store.stats.late_dropped == 4
    assert store._late == {}
    store.add(unit_element(7.5), 0.0)  # [7, 11) is still retained
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
