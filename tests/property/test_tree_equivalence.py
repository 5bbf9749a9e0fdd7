"""The tree store against the naive store, and the stream builders that
reach the store paths they are built for.

The properties pin the store axis of :mod:`tests.matrix` to ``tree`` under
feedback-free handlers and hold it to R2: values and counts bitwise for
order-independent aggregates, sum and mean within 1e-6, and at K = 0 the
errors scored for the windows the naive store emitted.

:mod:`tests.fold_cases` times its scenarios for the slice store's in-order
fold, :mod:`tests.cell_cases` for the per-window store's cells; the matrix
draws bases from both.  Each drawn scenario must find the store in the
state its tags name, element by element.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import CountAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.windows import SlidingWindowAssigner, Window
from tests.cell_cases import cell_cases
from tests.fold_cases import fold_cases
from tests.matrix import EXACT, FEEDBACK_FREE, MATRIX, REWIND, Base, Cell, check, draws

coarse_values = st.integers(min_value=0, max_value=12).map(float)


def tree_cells(aggregates):
    return draws(
        store=st.just("tree"), aggregate=st.sampled_from(aggregates),
        handler=st.sampled_from(FEEDBACK_FREE),
    )


@MATRIX
@given(tree_cells(EXACT))
@example((Base(REWIND, 4.0, 1.0, "count", "fixed-lag"), Cell(store="tree")))
def test_tree_bit_identical_for_order_independent_aggregates(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)


@MATRIX
@given(tree_cells(EXACT))
def test_tree_retirement_corrections_bit_identical(checkpoint, draw):
    """At K = 0 with ``feedback_horizon = size`` every late arrival is
    scored against an emitted window, by both stores alike."""
    base, cell = draw
    base = replace(base, k=0.0, feedback_horizon=base.size, track_feedback=True)
    check(base, cell, checkpoint=checkpoint)


@MATRIX
@given(tree_cells(("sum", "mean")))
def test_tree_within_association_tolerance_for_sum_mean(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)


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
        track_feedback=True,  # the phantom and retained records are the subject
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
