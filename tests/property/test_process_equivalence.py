"""Process-pool shards against in-process and unsharded runs.

Each property draws process cells of :func:`tests.matrix.draws`, which the
matrix compares bit for bit with the same cell on the in-process executor
(R1), and with the unsharded references (R3, R5 when K covers every
delay).  One warm two-worker pool with ``chunk_size=16`` serves the
module, so even small streams are dispatched in several chunks.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.matrix import EXACT, HOT_KEY, MATRIX, Base, Cell, check, covering, draws

PROPERTY = settings(MATRIX, max_examples=10)


@MATRIX  # the process cells' widest draw: twice the others' budget
@given(draws(executor="process"))
def test_process_bit_identical_to_threads_for_all_aggregates(pool, checkpoint, draw):
    check(*draw, pool=pool, checkpoint=checkpoint)


@PROPERTY
@given(draws(executor="process", keys=("hot",)))
@example((Base(HOT_KEY, 4.0, 1.0, "count", "k-slack", 3.0), Cell(shards=4, executor="process")))
def test_key_skew_with_empty_shards_matches_threads(pool, checkpoint, draw):
    """One hot key: every shard but one stays empty."""
    check(*draw, pool=pool, checkpoint=checkpoint)


@PROPERTY
@given(draws(executor="process", aggregate=st.sampled_from(EXACT)))
def test_process_matches_unsharded_for_exact_aggregates(pool, checkpoint, draw):
    base, cell = draw
    check(covering(base), cell, pool=pool, checkpoint=checkpoint)


@PROPERTY
@given(draws(executor="process", aggregate=st.sampled_from(["sum", "mean"])))
def test_process_within_drift_budget_vs_unsharded_for_sum_mean(pool, checkpoint, draw):
    base, cell = draw
    check(covering(base), cell, pool=pool, checkpoint=checkpoint)
