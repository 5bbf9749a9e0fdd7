"""Streams built to drive the slice store's in-order fold down every path.

Free-form disordered streams reach the fold's corners only by luck, so
:func:`fold_cases` opens each stream with a *scenario* whose timing is
computed from the window geometry and closes it with free-form noise.
Under ``KSlackHandler(case.slack)`` (or a shared-store query with that
slack) over ``(case.size, case.slide)`` the scenario holds, for key
``"a"``: a window with ``start == 0``, then three late elements that land
while the key's fold is clean — one in the suffix block of the next window
to close, one in its prefix region, one on the first slice of a block —
each followed by enough in-order slices for the dirty mark to be spent;
and a key ``"b"`` that goes idle for more than ``span`` slices and comes
back.  ``case.tagged`` names those elements by ``seq``;
``tests/property/test_tree_equivalence.py::test_fold_cases_hit_the_paths_they_name``
checks every draw against the store's state.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.streams.element import StreamElement

#: ``(size, slide)`` with span >= 4: below that no late slice fits between
#: the next window's start and the close frontier with room on both sides.
FOLD_WINDOW_PARAMS = [(4.0, 1.0), (10.0, 2.0), (6.0, 0.75), (8.0, 0.5)]


@dataclass(frozen=True)
class FoldCase:
    """One drawn stream and the query geometry its scenario was timed for."""

    stream: list[StreamElement]
    size: float
    slide: float
    slack: float
    #: seq -> (path the element is placed to hit, its slice index)
    tagged: dict[int, tuple[str, int]]


class ScenarioWriter:
    """Collects a scenario's elements, placed in units of the slide."""

    def __init__(self, slide: float, values: list[float]) -> None:
        self.slide = slide
        self.values = values
        self.elements: list[StreamElement] = []
        self.tagged: dict[int, tuple[str, int]] = {}

    def put(
        self, key: str, event_slice: float, arrival_slice: float, tag: str | None = None
    ) -> None:
        seq = len(self.elements)
        self.elements.append(
            StreamElement(
                event_time=event_slice * self.slide,
                value=self.values[seq % len(self.values)],
                key=key,
                arrival_time=arrival_slice * self.slide,
                seq=seq,
            )
        )
        if tag is not None:
            self.tagged[seq] = (tag, int(event_slice))


def add_noise(draw, elements: list[StreamElement], end: float, duration: float, value_strategy):
    """Append free-form disordered noise after ``end``, then sort by arrival."""
    noise = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=duration, allow_nan=False),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                value_strategy,
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=30,
        )
    )
    for event_time, delay, value, key in sorted(noise):
        elements.append(
            StreamElement(
                event_time=end + event_time,
                value=value,
                key=key,
                arrival_time=end + event_time + delay,
                seq=len(elements),
            )
        )
    elements.sort(key=StreamElement.arrival_sort_key)


def fold_scenario(
    size: float, slide: float, phase: int, where: float, values: list[float]
) -> tuple[list[StreamElement], dict[int, tuple[str, int]], float]:
    """The scenario's elements (any order), its tags and its end time.

    Key ``"a"`` gets one element per slice, in order, at ``(j + 0.5) *
    slide``; under a slack of at most ``0.4 * slide`` its arrival closes
    exactly the windows ending at slice ``j`` or before.  A late element arriving just
    after it for slice ``t`` is behind the close frontier when ``t <= j -
    1`` and inside the next window when ``t >= j - span + 1``.
    """
    span = round(size / slide)
    first = 2 + phase % (span - 2)  # the next window's offset in its block
    writer = ScenarioWriter(slide, values)
    put = writer.put

    # After in-order slice j the next window starts at j - span + 1; the
    # three visits put that start at offset ``first`` of blocks 1, 3 and 5.
    visits = {
        "suffix": (2 * span + first - 1, span + first + int(where * (span - first))),
        "prefix": (4 * span + first - 1, 4 * span + int(where * (first - 1))),
        "boundary": (6 * span + first - 1, 6 * span),
    }
    late_after = {after: (tag, late_slice) for tag, (after, late_slice) in visits.items()}
    for j in range(7 * span + first + 1):
        put("a", j + 0.5, j + 0.5)
        if j in late_after:
            tag, late_slice = late_after[j]
            put("a", late_slice + 0.25, j + 0.51, tag)
    # "b": two slices, silence for span + 2 slices, three more slices.
    for j in (0, 1):
        put("b", j + 0.25, j + 0.25)
    for j in range(span + 4, span + 7):
        put("b", j + 0.25, j + 0.25, "idle" if j == span + 4 else None)
    return writer.elements, writer.tagged, (7 * span + first + 2) * slide


@st.composite
def fold_cases(draw, value_strategy) -> FoldCase:
    """A :class:`FoldCase`: the scenario, then free-form disordered noise."""
    size, slide = draw(st.sampled_from(FOLD_WINDOW_PARAMS))
    slack = draw(st.floats(min_value=0.0, max_value=0.4)) * slide
    values = draw(st.lists(value_strategy, min_size=1, max_size=12))
    elements, tagged, end = fold_scenario(
        size,
        slide,
        draw(st.integers(min_value=0, max_value=63)),
        draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        values,
    )
    add_noise(draw, elements, end, 200.0, value_strategy)
    return FoldCase(elements, size, slide, slack, tagged)
