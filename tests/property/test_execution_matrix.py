"""The execution matrix: every cell emits what its references emit.

Each draw crosses every axis of :mod:`tests.matrix` at once (store,
driver, in-process shards, restore, observe, sanitize) and is held to
every relation it qualifies for; the table is in ``docs/INTERNALS.md``,
"The execution matrix".  The process-executor cells are drawn by
``test_process_equivalence.py``, which holds the module's warm pool.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from tests.matrix import (
    INTERLEAVED, MATRIX, REWIND, Base, Cell, check, draws, generated_stream,
)


@settings(MATRIX, max_examples=150)
@given(draws())
@example((Base(REWIND, 4.0, 1.0, "count", "fixed-lag"), Cell(store="tree")))
@example((Base(generated_stream(0), 4.0, 1.0, "mean", "mp-k-slack"), INTERLEAVED))
def test_cells_match_their_references(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)


def test_a_restored_sanitized_operator_checks_clean():
    base = Base(generated_stream(0), 4.0, 1.0, "count", "k-slack", k=6.5)
    check(base, Cell(sanitize=True, restore=1))
