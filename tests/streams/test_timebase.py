"""Tests for the time-domain helpers."""

from repro.streams.timebase import times_equal


class TestTimesEqual:
    def test_exact_matches_short_circuit(self):
        assert times_equal(1.5, 1.5)
        assert times_equal(float("inf"), float("inf"))
        assert times_equal(float("-inf"), float("-inf"))
        assert not times_equal(float("inf"), float("-inf"))

    def test_infinite_sentinel_vs_finite_time_is_never_equal(self):
        # rtol * inf would otherwise swallow any finite timestamp.
        assert not times_equal(float("inf"), 1e300)
        assert not times_equal(1e300, float("inf"))
        assert not times_equal(float("-inf"), 0.0)
        assert not times_equal(float("nan"), float("nan"))

    def test_near_zero_rounding_noise_is_absorbed(self):
        # 0.1 + 0.2 - 0.3 leaves ~5.6e-17 of float residue.  A *pure*
        # relative tolerance collapses to ~5.6e-26 at this magnitude and
        # would call these unequal; the atol floor absorbs it.
        residue = 0.1 + 0.2 - 0.3
        assert residue != 0.0  # repro-lint: disable=R03 - asserting the residue exists
        assert times_equal(residue, 0.0)
        assert times_equal(0.0, residue)

    def test_zero_epoch_timestamps(self):
        # Streams here start at epoch 0.0: sub-atol noise around zero is
        # equal, anything meaningfully nonzero is not.
        assert times_equal(0.0, 1e-12)
        assert times_equal(-1e-12, 1e-12)
        assert not times_equal(0.0, 1e-6)

    def test_relative_tolerance_at_large_magnitude(self):
        base = 1e6
        assert times_equal(base, base * (1.0 + 1e-10))
        assert not times_equal(base, base + 1.0)

    def test_atol_is_overridable(self):
        assert times_equal(0.0, 0.5, atol=1.0)
        assert not times_equal(0.0, 0.5)
        # atol=0 restores the old pure-relative behaviour near zero
        residue = 0.1 + 0.2 - 0.3
        assert not times_equal(residue, 0.0, atol=0.0)

    def test_asymmetric_argument_order(self):
        assert times_equal(1e-10, 2e-10) == times_equal(2e-10, 1e-10)
