"""Tracing is observation only: the observe axis of :mod:`tests.matrix`.

Every draw runs with ``TraceRecorder(detail=True)`` and a live
``MetricsRegistry``.  The matrix holds it bit-identical to the untraced
cell (R1: results, observed errors, late drops, released counts,
adaptations) and checks the registry's element and result counters
against the metrics.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from tests.matrix import MATRIX, check, draws


@MATRIX
@given(draws(observe=st.just(True)))
def test_traced_run_is_bit_identical_to_untraced(checkpoint, draw):
    check(*draw, checkpoint=checkpoint)
