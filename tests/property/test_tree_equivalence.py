"""Property tests: tree execution is equivalent to naive execution.

The slice store re-associates merges (a suffix/prefix fold in order, a
dyadic decomposition where late data reached the window), so the
equivalence claim splits:

* **bit-identical** for order-independent aggregates — count, min, max,
  distinct-count — under arbitrary disorder, late patches and retirement
  corrections, behind every feedback-free handler: the sorting buffers
  release in event-time order, the watermark handlers on arrival, ahead
  of their frontier, which can touch a slice below a key's open end range;
* **within float-association tolerance** for sum/mean.

Both families draw a third of their streams from :mod:`tests.fold_cases`,
whose scenarios reach each path of the in-order fold by construction, and
a third from :mod:`tests.cell_cases`, which does the same for the cells of
the per-window store (the slice store, which has none, is the independent
reference there).  The last two tests check that the scenarios reach the
paths they name.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    CountAggregate,
    DistinctCountAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner, Window
from repro.obs.trace import TraceRecorder
from repro.streams.element import StreamElement
from tests.cell_cases import cell_cases
from tests.conftest import emitted_window_errors
from tests.fold_cases import fold_cases
from tests.property.test_batched_equivalence import HANDLERS

# --------------------------------------------------------------------- #
# strategies

delays = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
event_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Small universe so distinct-count windows actually collide.
coarse_values = st.integers(min_value=0, max_value=12).map(float)

WINDOW_PARAMS = [(4.0, 1.0), (10.0, 2.0), (6.0, 3.0), (5.0, 5.0), (8.0, 0.5)]

ORDER_INDEPENDENT = [CountAggregate, MinAggregate, MaxAggregate, DistinctCountAggregate]

# The batched property's handlers minus AQ-K, whose trajectory reads each
# store's own retirement errors (the naive store also scores missed windows).
FEEDBACK_FREE = sorted(name for name in HANDLERS if not name.startswith("aqk"))


@st.composite
def arrived_streams(draw, max_size=60, value_strategy=values):
    """Arrival-ordered streams with arbitrary bounded delays."""
    pairs = draw(
        st.lists(
            st.tuples(event_times, delays, value_strategy),
            min_size=1,
            max_size=max_size,
        )
    )
    elements = [
        StreamElement(event_time=ts, value=v, arrival_time=ts + d, seq=i)
        for i, (ts, d, v) in enumerate(sorted(pairs))
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


@st.composite
def window_cases(draw, value_strategy=values):
    """``(stream, size, slide, k)``: free-form disorder, a fold or a cell case."""
    built = draw(st.sampled_from([None, fold_cases, cell_cases]))
    if built is not None:
        case = draw(built(value_strategy))
        return case.stream, case.size, case.slide, case.slack
    size, slide = draw(st.sampled_from(WINDOW_PARAMS))
    stream = draw(arrived_streams(value_strategy=value_strategy))
    return stream, size, slide, draw(st.floats(min_value=0.0, max_value=5.0))


def make_handler(name, k):
    """The named handler; K-slack runs under the case's own slack."""
    return KSlackHandler(k) if name == "k-slack" else HANDLERS[name]()


def run_pair(stream, size, slide, k, aggregate_cls, track_feedback=True, handler="k-slack"):
    naive = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        make_handler(handler, k),
        track_feedback=track_feedback,
    )
    tree = WindowAggregateOperator(
        SlidingWindowAssigner(size, slide),
        aggregate_cls(),
        make_handler(handler, k),
        track_feedback=track_feedback,
        mode="tree",
    )
    naive_results = run_pipeline(stream, naive).results
    tree_results = run_pipeline(stream, tree).results
    return naive, naive_results, tree, tree_results


# --------------------------------------------------------------------- #
# bit-identical family


@given(
    window_cases(value_strategy=coarse_values),
    st.sampled_from(ORDER_INDEPENDENT),
    st.booleans(),
    st.sampled_from(FEEDBACK_FREE),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(
    # Released on arrival, 9.5 lands below the key's range (ends 11..14)
    # while its window [6, 10) is still open: the range must grow down.
    (
        [
            StreamElement(event_time=10.5, value=1.0, arrival_time=10.5, seq=0),
            StreamElement(event_time=9.5, value=1.0, arrival_time=10.7, seq=1),
        ],
        4.0, 1.0, 0.0,
    ),
    CountAggregate, True, "fixed-watermark",
)
def test_tree_bit_identical_for_order_independent_aggregates(
    window_case, aggregate_cls, track_feedback, handler
):
    stream, size, slide, k = window_case
    __, naive_results, __, tree_results = run_pair(
        stream, size, slide, k, aggregate_cls, track_feedback, handler
    )
    naive_map = {(r.key, r.window): (r.value, r.count) for r in naive_results}
    tree_map = {(r.key, r.window): (r.value, r.count) for r in tree_results}
    assert naive_map == tree_map  # exact equality: values, counts, windows


@given(window_cases(value_strategy=coarse_values), st.sampled_from(ORDER_INDEPENDENT))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_retirement_corrections_bit_identical(window_case, aggregate_cls):
    """Late patches feed retirement: observed errors must match exactly.

    K = 0 maximizes lateness, and a small feedback horizon forces windows
    to retire (and be re-assembled from patched partials) mid-stream.  The
    reference is the naive store's retirement of the windows it emitted:
    the slice store scores emitted windows only, while naive additionally
    scores phantom records for missed windows (see
    ``test_observed_errors_match_for_emitted_windows`` in the sliced
    suite), which its ``window.retire`` trace records carry as
    ``emitted = nan``.
    """
    stream, size, slide, __ = window_case

    def build(mode):
        return WindowAggregateOperator(
            SlidingWindowAssigner(size, slide),
            aggregate_cls(),
            KSlackHandler(0.0),
            feedback_horizon=size,
            mode=mode,
        )

    naive, tree = build("naive"), build("tree")
    recorder = TraceRecorder()
    naive_results = run_pipeline(stream, naive, trace=recorder).results
    tree_results = run_pipeline(stream, tree).results
    assert len(naive_results) == len(tree_results)
    naive_errors = emitted_window_errors(recorder)
    tree_errors = tree.stats.observed_errors
    assert len(naive_errors) == len(tree_errors)
    for a, b in zip(sorted(naive_errors), sorted(tree_errors)):
        assert (math.isnan(a) and math.isnan(b)) or a == b


# --------------------------------------------------------------------- #
# float-association family


@given(window_cases(), st.sampled_from([SumAggregate, MeanAggregate]))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tree_within_association_tolerance_for_sum_mean(window_case, aggregate_cls):
    stream, size, slide, k = window_case
    __, naive_results, __, tree_results = run_pair(
        stream, size, slide, k, aggregate_cls
    )
    naive_map = {(r.key, r.window): (r.value, r.count) for r in naive_results}
    tree_map = {(r.key, r.window): (r.value, r.count) for r in tree_results}
    assert set(naive_map) == set(tree_map)
    for slot, (value, count) in naive_map.items():
        t_value, t_count = tree_map[slot]
        assert t_count == count
        assert t_value == value or abs(t_value - value) <= 1e-6 * max(1.0, abs(value))


# --------------------------------------------------------------------- #
# the fold cases reach the paths they are built for


@given(fold_cases(coarse_values))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fold_cases_hit_the_paths_they_name(case):
    """Each tagged element finds the store in the state its tag promises.

    Checked against a store behind K-slack, just before the element is fed.
    """
    span = round(case.size / case.slide)
    results = []
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(case.size, case.slide),
        CountAggregate(),
        KSlackHandler(case.slack),
        mode="tree",
    )
    view = operator._store
    seen = set()
    for element in case.stream:
        tag, late_slice = case.tagged.get(element.seq, (None, None))
        if tag == "idle":
            # Every window over the key's old slices closed: no fold kept.
            assert view._next_end["b"] > view._max_end["b"]
            assert "b" not in view._folds
        elif tag is not None:
            fold = view._folds["a"]
            next_start = view._next_end["a"] - span
            assert "a" not in view._dirty_to  # a clean fold, about to go stale
            assert (late_slice + 1) * case.slide <= view.close_frontier
            assert next_start <= late_slice < next_start + span
            if tag == "suffix":
                assert fold.base <= late_slice < fold.base + span
            elif tag == "prefix":
                assert fold.base + span <= late_slice < fold.prefix_to
            else:
                assert late_slice == fold.base + span < fold.prefix_to
                assert late_slice % span == 0
        results.extend(operator.process(element))
        if tag in ("suffix", "prefix", "boundary"):
            assert view._dirty_to["a"] == late_slice
        if tag is not None:
            seen.add(tag)
    assert seen == {"suffix", "prefix", "boundary", "idle"}
    assert ("a", Window(0.0, case.size)) in {(r.key, r.window) for r in results}
    # The late-reached windows were assembled from the node cache.
    assert view.tree.recompute_count > 0


@given(cell_cases(coarse_values))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cell_cases_hit_the_paths_they_name(case):
    """Each tagged element finds the per-window store in the state its tag
    promises, just before it is fed, and leaves the cell it names."""
    span = round(case.size / case.slide)
    operator = WindowAggregateOperator(
        SlidingWindowAssigner(case.size, case.slide),
        CountAggregate(),
        KSlackHandler(case.slack),
    )
    store = operator._store
    results = []
    # Windows of its interval each tagged element is late for; then what it
    # opens as phantom records, and how many late updates they hold after it.
    late_for = {"split": 1, "revisit": 2, "reuse": 2, "new_key": 2}
    phantoms = {"new_key": 2, "all_late": span}
    updates = {"reuse": 2, "all_late_again": 2}
    seen = set()
    for element in case.stream:
        tag, interval = case.tagged.get(element.seq, (None, None))
        if tag is None:
            results.extend(operator.process(element))
            continue
        seen.add(tag)
        key, slot = element.key, (element.key, interval)
        late = late_for.get(tag, span)
        windows = [
            Window(n * case.slide, n * case.slide + case.size)
            for n in range(interval - span + 1, interval + 1)
        ]
        assert [w.end <= store.close_frontier for w in windows] == (
            [True] * late + [False] * (span - late)
        )
        before = store._cells.get(slot)
        # Only "reuse" finds a cell ("revisit" built it, nothing closed
        # since); for the others a close dropped it, or nothing built it.
        assert (before is not None) == (tag == "reuse")
        if tag == "split":
            assert [r.count for r in results if (r.key, r.window) == (key, windows[0])] == [1]
        elif tag == "new_key":
            assert not any(k == key for k, __ in [*store._open, *store._closed])
        missed = store.stats.missed_windows
        results.extend(operator.process(element))
        cell = store._cells.get(slot)
        if late == span:
            # No close is left to clean up after this interval: nothing kept.
            assert cell is None and interval not in store._cache.entries
        else:
            assert before is None or before is cell
            assert cell.late == windows[:late]
            assert cell.records == [store._open[(key, w)] for w in windows[late:]]
        retained = [store._closed[(key, w)] for w in windows[:late]]
        assert store.stats.missed_windows - missed == phantoms.get(tag, 0)
        assert [math.isnan(r.emitted_value) for r in retained] == (
            [tag in ("new_key", "all_late", "all_late_again")] * late
        )
        assert {r.late_updates for r in retained} == {updates.get(tag, 1)}
    assert seen == {
        "split", "revisit", "reuse", "new_key", "all_late", "all_late_again"
    }
