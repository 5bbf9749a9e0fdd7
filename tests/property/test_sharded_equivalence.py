"""Sharded execution against the runs it must agree with.

Each property pins the shard axis of :func:`tests.matrix.draws` (2 to 4
in-process shards) and one aggregate family or store, and holds the cell
to the matrix relations: R3 against one unsharded run per shard's
substream (every key, ``None`` included, lives in one shard) and, under
fixed K-slack, against the unsharded run, R4 merge order, R5 the oracle
when K covers every delay.  Sharding may delay an emission, never hasten
it.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from tests.matrix import EXACT, FEEDBACK_FREE, MATRIX, check, covering, draws

SHARDS = st.integers(2, 4)


@MATRIX
@given(draws(shards=SHARDS, aggregate=st.sampled_from(EXACT)))
def test_sharded_bit_identical_for_exact_aggregates(checkpoint, draw):
    base, cell = draw
    check(covering(base), cell, checkpoint=checkpoint)


@MATRIX
@given(draws(shards=SHARDS, aggregate=st.sampled_from(["sum", "mean"])))
def test_sharded_within_drift_budget_for_sum_mean(checkpoint, draw):
    base, cell = draw
    check(covering(base), cell, checkpoint=checkpoint)


@MATRIX
@given(draws(shards=SHARDS, handler=st.just("k-slack")))
def test_sharded_is_at_least_as_complete_under_late_drops(checkpoint, draw):
    """K drawn below the largest delay too: shard frontiers lag the global
    one, so a shard drops no element the unsharded run keeps."""
    check(*draw, checkpoint=checkpoint)


@MATRIX
@given(draws(shards=SHARDS, store=st.just("tree"), handler=st.sampled_from(FEEDBACK_FREE)))
def test_sharded_execution_mode_is_value_transparent(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)
