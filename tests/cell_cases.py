"""Streams built to drive the per-window store's cells down every path.

The per-window store resolves an element's windows once per ``(key, slide
interval)`` — a *cell* — and drops every cell when a window closes.
Free-form disorder reaches the corners of that only by luck, so
:func:`cell_cases` opens each stream with a *scenario* whose timing is
computed from the window geometry and closes it with free-form noise.

A clock key ``"t"`` sends one in-order element per slide interval, at
``(j + 0.5) * slide``.  Under ``KSlackHandler(case.slack)`` with a slack
of at most ``0.4 * slide``, tick ``j`` closes exactly the windows ending
at ``j * slide`` or before, and an element of interval ``i <= j - 1``
arriving just after it is released at once, late for ``min(span, j - i)``
windows.  Around that clock the scenario places, each on its own key and
at its own interval ``m``:

* ``"split"`` (key ``"a"``) — two elements of interval ``m`` with the
  close of the interval's first window between them: the second finds the
  on-time/late split moved by one window;
* ``"revisit"`` / ``"reuse"`` (key ``"d"``) — the interval is revisited
  after a close took two of its windows (the cell was dropped and is
  rebuilt), and again at once (the rebuilt cell is used as it is);
* ``"new_key"`` (key ``"c"``) — a key first seen when two windows of its
  interval have closed: nothing was ever open for them, so they are
  retained as phantom records;
* ``"all_late"`` / ``"all_late_again"`` (key ``"b"``) — an element late for
  every window of its interval (nothing is open, so the store keeps no
  cell for it: no close would be left to drop one), and a second one a
  tick later: it must find the first one's phantom records, not make new
  ones.

``case.tagged`` names those elements by ``seq``;
``tests/property/test_tree_equivalence.py::test_cell_cases_hit_the_paths_they_name``
checks every draw against the store's state.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.streams.element import StreamElement
from tests.fold_cases import FOLD_WINDOW_PARAMS, ScenarioWriter, add_noise

#: Intervals between the scenario's cases (none needs more than three).
_GAP = 3


@dataclass(frozen=True)
class CellCase:
    """One drawn stream and the query geometry its scenario was timed for."""

    stream: list[StreamElement]
    size: float
    slide: float
    slack: float
    #: seq -> (path the element is placed to hit, its slide interval)
    tagged: dict[int, tuple[str, int]]


def cell_scenario(
    size: float, slide: float, phase: int, values: list[float]
) -> tuple[list[StreamElement], dict[int, tuple[str, int]], float]:
    """The scenario's elements (any order), its tags and its end time."""
    span = round(size / slide)
    first = span + phase  # every window of an interval >= span - 1 starts at >= 0
    writer = ScenarioWriter(slide, values)
    put = writer.put
    split, revisit, new_key, all_late = (first + n * _GAP for n in range(4))
    last_tick = all_late + span + 3
    for j in range(last_tick + 1):
        put("t", j + 0.5, j + 0.5)
    # In order, so on time for the whole interval; then after tick m + 1.
    put("a", split + 0.25, split + 0.25)
    put("a", split + 0.75, split + 1.51, "split")
    put("d", revisit + 0.25, revisit + 0.25)
    put("d", revisit + 0.75, revisit + 2.51, "revisit")
    put("d", revisit + 0.8, revisit + 2.52, "reuse")
    put("c", new_key + 0.25, new_key + 2.51, "new_key")
    put("b", all_late + 0.25, all_late + span + 1.51, "all_late")
    put("b", all_late + 0.5, all_late + span + 2.51, "all_late_again")
    return writer.elements, writer.tagged, (last_tick + 1) * slide


@st.composite
def cell_cases(draw, value_strategy) -> CellCase:
    """A :class:`CellCase`: the scenario, then free-form disordered noise."""
    size, slide = draw(st.sampled_from(FOLD_WINDOW_PARAMS))
    slack = draw(st.floats(min_value=0.0, max_value=0.4)) * slide
    values = draw(st.lists(value_strategy, min_size=1, max_size=12))
    elements, tagged, end = cell_scenario(
        size, slide, draw(st.integers(min_value=0, max_value=7)), values
    )
    add_noise(draw, elements, end, 100.0, value_strategy)
    return CellCase(elements, size, slide, slack, tagged)
