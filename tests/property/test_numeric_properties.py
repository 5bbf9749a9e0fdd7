"""Property tests for the numeric layer.

Five contracts, each against an exact reference:

* **One-frame merge ≡ add then carry, bit-for-bit** —
  :func:`~repro.core.numeric.neumaier_merge` performs the operations of
  ``neumaier_add(a, b[0]); a[1] += b[1]`` in their order, signed zeros,
  infinities and subnormals included (a NaN slot need only be NaN), and
  so do the sum and mean merges built on it.
* **Scalar ≡ batched, bit-for-bit** — ``SumAggregate``/``MeanAggregate``
  fold batches through the *same* Neumaier sequence as repeated ``add``,
  so the twins agree exactly (including across the 32-element threshold
  where the old numpy fast path used to reassociate).
* **Variance merge matches the library** — splitting a window at any
  point (including empty and single-element sides) and merging the
  Chan partials agrees with :func:`statistics.pvariance` within the
  declared reassoc-tolerant budget.
* **Honest aggregates keep their declared discipline** — random windows
  folded through ``add``, through ``add_many`` and through a split then
  ``merge`` stay within the budget their ``__numeric__`` annotation
  declares (:data:`BUDGETS`; variance widened by the window's
  conditioning) of a :class:`fractions.Fraction` reference; ``exact``
  means bit-equal.
* **Every emitted window keeps it too** — a K-slack run over a
  disordered stream, in naive and tree mode, compared window by window
  with the exact reference over the elements the window held.
"""

from __future__ import annotations

import math
import statistics
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.numeric import neumaier_add, neumaier_merge, relative_drift
from repro.engine.aggregate_op import WindowAggregateOperator
from repro.engine.aggregates import (
    MeanAggregate,
    SumAggregate,
    VarianceAggregate,
    make_aggregate,
)
from repro.engine.handlers import KSlackHandler
from repro.engine.pipeline import run_pipeline
from repro.engine.windows import SlidingWindowAssigner
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.generators import generate_stream

#: Relative drift each declared ``__numeric__`` discipline allows against
#: the exact reference; ``"exact"`` is checked as bit-equality.
BUDGETS: dict[str, float] = {
    "exact": 0.0,
    "compensated": 1e-12,
    "reassoc-tolerant": 1e-9,
}


def exact_reference(name: str, values: list[float]) -> float:
    """The correctly rounded ``name`` of ``values``, computed in rationals."""
    if name == "count":
        return float(len(values))
    exact = [Fraction(value) for value in values]
    total = sum(exact, Fraction(0))
    if name == "sum":
        return float(total)
    mean = total / len(exact)
    if name == "mean":
        return float(mean)
    assert name == "variance", name
    return float(sum(((value - mean) ** 2 for value in exact), Fraction(0)) / len(exact))


def assert_within_budget(name: str, value: float, values: list[float]) -> None:
    """``value`` keeps the discipline ``name`` declares over ``values``.

    ``"exact"`` means bit-equal.  A variance's budget widens with the
    window's conditioning: Welford's error grows with
    ``kappa = sqrt(1 + mean^2 / variance)``, so an honest variance of an
    ill-conditioned window can pass the flat reassoc-tolerant budget,
    and ``n * eps * kappa`` is the bound the recurrence keeps there.
    """
    reference = exact_reference(name, values)
    bound = BUDGETS[type(make_aggregate(name)).__numeric__]
    if bound == 0.0:
        assert value == reference, (name, value, reference)
        return
    if name == "variance" and reference > 0.0:
        mean = math.fsum(values) / len(values)
        kappa = math.hypot(1.0, mean / math.sqrt(reference))
        bound = max(bound, len(values) * sys.float_info.epsilon * kappa)
    assert relative_drift(value, reference) <= bound, (name, value, reference)


#: Operands at the edges of the compensated fold: signed zeros, infinities,
#: NaN, subnormals, magnitudes near 1e±300, and any float at all.
edge_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
    ),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=-1e-299, max_value=-1e-301),
    st.floats(max_value=1e-307, min_value=-1e-307),  # subnormals and zeros
    st.floats(),
)


def bit_patterns(accumulator: list[float]) -> list[bytes]:
    """The IEEE-754 bytes of each slot: -0.0 is not 0.0, every NaN is one.

    IEEE 754 leaves open which NaN a sum of two NaNs keeps, and CPython
    3.11's specialized float ``+`` keeps the other operand's than the
    generic one: ``nan + -nan`` reads ``0xfff8...`` cold and
    ``0x7ff8...`` once the adding code has been specialized.  So a NaN
    slot compares by being NaN; every other slot compares bit for bit.
    """
    return [
        struct.pack("<d", math.nan if math.isnan(slot) else slot)
        for slot in accumulator
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_floats, min_size=5, max_size=5))
def test_merge_is_add_then_carry_bit_for_bit(slots):
    total, compensation, other_total, other_compensation, count = slots
    expected = [total, compensation]
    neumaier_add(expected, other_total)
    expected[1] += other_compensation
    merged = [total, compensation]
    assert neumaier_merge(merged, [other_total, other_compensation]) is merged
    assert bit_patterns(merged) == bit_patterns(expected)
    summed = [total, compensation]
    assert SumAggregate().merge(summed, [other_total, other_compensation]) is summed
    assert bit_patterns(summed) == bit_patterns(expected)
    # The mean's merge is the same fold plus the counts, carried after it.
    mean = [total, compensation, count]
    other = [other_total, other_compensation, abs(count)]
    assert MeanAggregate().merge(mean, other) is mean
    assert bit_patterns(mean) == bit_patterns(expected + [count + abs(count)])


#: Wide but finite magnitudes: large enough to force cancellation and
#: rounding, small enough that squaring (variance) stays finite.
values_lists = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    min_size=0,
    max_size=96,
)


@settings(max_examples=100, deadline=None)
@given(values=values_lists, split=st.integers(min_value=0, max_value=96))
def test_scalar_and_batched_folds_are_bit_identical(values, split):
    # Cover the old numpy threshold: sizes up to 96 include >= 32-element
    # batches, where add_many used to switch to a reassociating fast path.
    for aggregate in (SumAggregate(), MeanAggregate()):
        scalar = aggregate.create()
        for value in values:
            aggregate.add(scalar, value)
        batched = aggregate.create()
        head, tail = values[: min(split, len(values))], values[min(split, len(values)) :]
        aggregate.add_many(batched, head)
        aggregate.add_many(batched, tail)
        assert scalar == batched  # full accumulator state, not just result
        scalar_result = aggregate.result(scalar)
        batched_result = aggregate.result(batched)
        assert scalar_result == batched_result or (
            math.isnan(scalar_result) and math.isnan(batched_result)
        )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=64,
    ),
    split=st.integers(min_value=0, max_value=64),
)
def test_variance_merge_matches_pvariance(values, split):
    # Split anywhere — split=0 merges an empty left partial, split>=len
    # an empty right one; single-element sides hit the n=1 corner of
    # Chan's combine.
    aggregate = VarianceAggregate()
    cut = min(split, len(values))
    left = aggregate.create()
    aggregate.add_many(left, values[:cut])
    right = aggregate.create()
    aggregate.add_many(right, values[cut:])
    merged = aggregate.merge(left, right)
    expected = statistics.pvariance(values)
    actual = aggregate.result(merged)
    bound = BUDGETS[VarianceAggregate.__numeric__]
    scale = max(abs(expected), 1e-9)
    assert abs(actual - expected) <= bound * scale + 1e-18


def test_variance_single_element_and_empty_corners():
    aggregate = VarianceAggregate()
    empty = aggregate.create()
    assert math.isnan(aggregate.result(empty))
    single = aggregate.create()
    aggregate.add(single, 7.5)
    assert aggregate.result(single) == 0.0
    # empty-merge identities in both directions
    assert aggregate.result(aggregate.merge(single, aggregate.create())) == 0.0
    carried = aggregate.merge(aggregate.create(), single)
    assert aggregate.result(carried) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=64,
    ),
    name=st.sampled_from(["sum", "mean", "variance", "count"]),
    split=st.integers(min_value=0, max_value=64),
)
# mean^2 / variance ~ 7.6e14: Welford drifts 1.08e-9, past the flat 1e-9.
@example(values=[357913722.0, 357913721.0, 357913694.0], name="variance", split=1)
def test_honest_aggregates_stay_within_their_declared_budget(values, name, split):
    aggregate = make_aggregate(name)
    scalar = aggregate.create()
    for value in values:
        aggregate.add(scalar, value)
    assert_within_budget(name, aggregate.result(scalar), values)

    batched = aggregate.create()
    aggregate.add_many(batched, values)
    assert_within_budget(name, aggregate.result(batched), values)

    cut = min(split, len(values))
    left = aggregate.create()
    aggregate.add_many(left, values[:cut])
    right = aggregate.create()
    aggregate.add_many(right, values[cut:])
    merged = aggregate.merge(left, right)
    assert_within_budget(name, aggregate.result(merged), values)


# --------------------------------------------------------------------- #
# every emitted window of a disordered run


@pytest.fixture(scope="module")
def disordered_stream():
    rng = np.random.default_rng(18)
    return inject_disorder(
        generate_stream(duration=1500 / 200, rate=200, rng=rng),
        ExponentialDelay(0.3),
        rng,
    )


@pytest.mark.parametrize("mode", ["naive", "tree"])
@pytest.mark.parametrize("name", ["sum", "mean", "count", "variance"])
def test_acceptance_drift_bounds(disordered_stream, name, mode):
    output = run_pipeline(
        list(disordered_stream),
        WindowAggregateOperator(
            SlidingWindowAssigner(size=2.0, slide=0.5),
            make_aggregate(name),
            KSlackHandler(1.0),
            mode=mode,
        ),
    )
    assert output.metrics.late_dropped > 0  # the run saw real disorder
    checked = 0
    for result in output.results:
        # A window holds what arrived by the step that closed it (every
        # element by then is released: it lies below the frontier), and
        # a flushed window holds everything that reached it.
        window = result.window
        values = [
            e.value
            for e in disordered_stream
            if e.key == result.key
            and window.start <= e.event_time < window.end
            and (result.flushed or e.arrival_time <= result.emit_time)
        ]
        assert len(values) == result.count
        if values:
            assert_within_budget(name, result.value, values)
            checked += 1
    assert checked > 0
