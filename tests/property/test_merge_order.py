"""The order the sharded merge emits in.

The merge walks distinct window ends in ascending order and never sorts
by emit time (``repro.engine.parallel``).  The property checks the order
(relation R4 of :mod:`tests.matrix`) on sharded cells over keyed,
``None``, mixed and hot-key routing and gapped streams; the fixed case
pins a frontier jump that closes several ends at one emit time.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.engine.aggregates import CountAggregate
from repro.engine.handlers import KSlackHandler
from repro.engine.parallel import ShardedWindowOperator, stable_shard
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.element import StreamElement
from tests.matrix import MATRIX, check, draws


@MATRIX
@given(draws(shards=st.integers(2, 4)))
def test_merged_results_are_ordered_by_window_end(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)


def test_a_frontier_jump_closes_several_ends_in_order():
    # The deterministic instance of the gap the property draws: both
    # shards' frontiers step from 2.5 to 33 on the elements at 34.0, so
    # the ends 4..7 share one emit time and the order among them is the
    # end's alone.
    times = [0.5, 1.5, 2.5, 3.5, 34.0, 34.5, 35.5, 36.0]
    stream = [
        StreamElement(event_time=t, value=1.0, arrival_time=t + 0.1, key=key, seq=2 * i + j)
        for i, t in enumerate(times)
        for j, key in enumerate("ab")
    ]
    assert stable_shard("a", 2) != stable_shard("b", 2)
    operator = ShardedWindowOperator(
        2, SlidingWindowAssigner(4.0, 1.0), CountAggregate(), lambda: KSlackHandler(1.0)
    )
    results = run_pipeline(stream, operator).results
    at_the_jump = [(r.window.end, r.key) for r in results if r.emit_time == 34.0 + 0.1]
    assert at_the_jump == [(end, key) for end in (4.0, 5.0, 6.0, 7.0) for key in "ab"]
    assert any(r.flushed for r in results)
