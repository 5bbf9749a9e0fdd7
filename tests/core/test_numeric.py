"""Compensated summation, drift metrics, and tolerance-comparison edges."""

from __future__ import annotations

import math

from repro.core.numeric import (
    floats_close,
    neumaier_add,
    neumaier_add_many,
    neumaier_create,
    neumaier_merge,
    neumaier_total,
    relative_drift,
)

#: The textbook cancellation case: a bare left-to-right fold loses the 1.0.
TORTURE = [1e16, 1.0, -1e16]


def compensated_sum(values: list[float]) -> float:
    """One batched Neumaier fold of ``values``."""
    acc = neumaier_create()
    neumaier_add_many(acc, values)
    return neumaier_total(acc)


# --------------------------------------------------------------------- #
# Neumaier primitives


def test_bare_fold_loses_the_torture_case():
    # Not a test of our code — a demonstration that the problem is real
    # and the torture case below is actually discriminating.
    total = 0.0
    for value in TORTURE:
        total = total + value
    assert total == 0.0


def test_neumaier_add_recovers_cancellation():
    acc = neumaier_create()
    for value in TORTURE:
        neumaier_add(acc, value)
    assert neumaier_total(acc) == 1.0


def test_neumaier_add_many_recovers_cancellation():
    acc = neumaier_create()
    neumaier_add_many(acc, TORTURE)
    assert neumaier_total(acc) == 1.0
    assert compensated_sum(TORTURE) == 1.0


def test_scalar_and_batched_folds_are_bit_identical():
    values = [1e16, 3.14159, -2.71828, 1.0, -1e16, 0.1, 0.2, 0.7]
    scalar = neumaier_create()
    for value in values:
        neumaier_add(scalar, value)
    batched = neumaier_create()
    neumaier_add_many(batched, values)
    assert scalar == batched  # the full [total, compensation] state


def test_neumaier_handles_value_larger_than_total():
    # Plain Kahan loses compensation when |value| > |total|; Neumaier's
    # magnitude test keeps it.
    acc = neumaier_create()
    neumaier_add_many(acc, [1.0, 1e100, 1.0, -1e100])
    assert neumaier_total(acc) == 2.0


def test_neumaier_merge_carries_compensation():
    left = neumaier_create()
    neumaier_add_many(left, [1e16, 1.0])
    right = neumaier_create()
    neumaier_add_many(right, [-1e16])
    neumaier_merge(left, right)
    assert neumaier_total(left) == 1.0


def test_long_sum_matches_fsum():
    values = [0.1] * 10_000
    assert compensated_sum(values) == math.fsum(values)


# --------------------------------------------------------------------- #
# floats_close edge cases (mirrors times_equal's contract)


def test_floats_close_basic_tolerance():
    assert floats_close(1.0, 1.0)
    assert floats_close(1e12, 1e12 * (1.0 + 1e-10))
    assert not floats_close(1.0, 1.001)


def test_floats_close_atol_floor_near_zero():
    # A pure relative tolerance vanishes at zero; the atol floor absorbs
    # accumulation residue in values that should be exactly zero.
    residue = math.fsum([0.1] * 3) - 0.3
    assert residue != 0.0
    assert floats_close(residue, 0.0)
    assert not floats_close(residue, 0.0, atol=0.0)


def test_floats_close_equal_infinities_are_close():
    assert floats_close(math.inf, math.inf)
    assert floats_close(-math.inf, -math.inf)


def test_floats_close_distinct_infinities_are_not():
    assert not floats_close(math.inf, -math.inf)
    assert not floats_close(-math.inf, math.inf)


def test_floats_close_infinity_vs_finite_is_not_close():
    # rtol * inf would otherwise swallow any finite comparand.
    assert not floats_close(math.inf, 1e300)
    assert not floats_close(1e300, math.inf)
    assert not floats_close(-math.inf, 0.0)


def test_floats_close_nan_is_never_close():
    assert not floats_close(math.nan, math.nan)
    assert not floats_close(math.nan, 0.0)
    assert not floats_close(math.inf, math.nan)


# --------------------------------------------------------------------- #
# drift metrics


def test_relative_drift_zero_for_identical():
    assert relative_drift(1.5, 1.5) == 0.0
    assert relative_drift(math.inf, math.inf) == 0.0


def test_relative_drift_scales_by_reference():
    assert floats_close(relative_drift(1.0 + 1e-6, 1.0), 1e-6)
    assert floats_close(relative_drift(2e6 + 2.0, 2e6), 1e-6)


def test_relative_drift_epsilon_floor_near_zero():
    # Reference ~0: honest absolute error must not explode.
    assert relative_drift(1e-15, 0.0) == 1e-15 / 1e-12


def test_relative_drift_nan_semantics():
    assert relative_drift(math.nan, math.nan) == 0.0
    assert relative_drift(math.nan, 1.0) == math.inf
    assert relative_drift(1.0, math.nan) == math.inf
