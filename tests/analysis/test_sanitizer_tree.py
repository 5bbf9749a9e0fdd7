"""StreamSan over tree execution: clean runs pass, seeded tree bugs fail."""

from __future__ import annotations

import pytest

from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import make_aggregate
from repro.engine.handlers import DisorderHandler, KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.errors import SanitizerError
from repro.streams.element import StreamElement
from tests.conftest import build_elements


def make_tree_operator(cls=WindowAggregateOperator, handler=None):
    """A sliding-mean tree operator (size 2, slide 1) over K-slack; it
    scores its closed windows, so sanitized runs compare observed errors."""
    return cls(
        SlidingWindowAssigner(size=2, slide=1),
        make_aggregate("mean"),
        handler if handler is not None else KSlackHandler(k=1.0),
        track_feedback=True,
        mode="tree",
    )


ELEMENTS = build_elements(11, 250)


# --------------------------------------------------------------------- #
# clean tree runs sail through the checkers


def test_tree_scalar_run_is_unchanged_by_sanitizer():
    plain = run_pipeline(ELEMENTS, make_tree_operator())
    checked = run_pipeline(ELEMENTS, make_tree_operator(), sanitize=True)
    assert checked.results == plain.results
    assert checked.observed_errors == plain.observed_errors


def test_tree_batched_run_is_unchanged_by_sanitizer():
    plain = run_pipeline(ELEMENTS, make_tree_operator(), batch_size=16)
    checked = run_pipeline(
        ELEMENTS, make_tree_operator(), batch_size=16, sanitize=True
    )
    assert checked.results == plain.results


# --------------------------------------------------------------------- #
# seeded tree bugs the checkers must catch


class DuplicatingTreeOperator(WindowAggregateOperator):
    """BUG: every closed window is emitted twice."""

    def process(self, element: StreamElement):
        """Double the emissions of the real tree path."""
        results = super().process(element)
        return results + results


def test_duplicate_tree_emission_is_caught():
    with pytest.raises(SanitizerError, match=r"StreamSan\[retirement\].*twice"):
        run_pipeline(
            ELEMENTS, make_tree_operator(DuplicatingTreeOperator), sanitize=True
        )


class RegressingTreeHandler(DisorderHandler):
    """BUG: releases immediately while its frontier walks backwards."""

    name = "bad-tree-frontier"

    def __init__(self) -> None:
        self._offers = 0

    def offer(self, element: StreamElement) -> list[StreamElement]:
        """Release immediately; the frontier regresses per offer."""
        self._offers += 1
        return [element]

    def flush(self) -> list[StreamElement]:
        """Nothing buffered."""
        return []

    @property
    def frontier(self) -> float:
        return -float(self._offers)


def test_buggy_tree_handler_is_caught():
    operator = make_tree_operator(handler=RegressingTreeHandler())
    with pytest.raises(SanitizerError, match=r"StreamSan\[frontier\].*backwards"):
        run_pipeline(ELEMENTS[:10], operator, sanitize=True)
