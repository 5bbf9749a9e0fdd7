"""Property tests for the numeric layer.

Three contracts, each over hypothesis-generated value lists:

* **Scalar ≡ batched, bit-for-bit** — ``SumAggregate``/``MeanAggregate``
  fold batches through the *same* Neumaier sequence as repeated ``add``,
  so the twins agree exactly (including across the 32-element threshold
  where the old numpy fast path used to reassociate).
* **Variance merge matches the library** — splitting a window at any
  point (including empty and single-element sides) and merging the
  Chan partials agrees with :func:`statistics.pvariance` within the
  declared reassoc-tolerant budget.
* **NumSan never fires on honest aggregates** — random windows through
  the shipped sum/mean/variance implementations stay within the drift
  budget their ``__numeric__`` annotation declares (variance: widened by
  the window's conditioning); the sanitizer completes without raising and
  its observed drift obeys the bound.
"""

from __future__ import annotations

import math
import statistics

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.numeric.numsan import DRIFT_BOUNDS, NumSan
from repro.engine.aggregates import (
    MeanAggregate,
    SumAggregate,
    VarianceAggregate,
    make_aggregate,
)

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
    bound = DRIFT_BOUNDS[VarianceAggregate.__numeric__]
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
    name=st.sampled_from(["sum", "mean", "variance"]),
)
# mean^2 / variance ~ 7.6e14: Welford drifts 1.08e-9, past the flat 1e-9.
@example(values=[357913722.0, 357913721.0, 357913694.0], name="variance")
def test_numsan_accepts_honest_aggregates(values, name):
    san = NumSan(exact_every=2)  # sample the Fraction reference densely
    shadow = san.shadow_aggregate(make_aggregate(name))
    accumulator = shadow.create()
    shadow.add_many(accumulator, values)
    shadow.result(accumulator)  # raises SanitizerError on a violation
    stats = san.report.stats[name]
    assert stats.windows_checked == 1
    assert stats.max_rel_drift <= stats.bound
