"""Tests for requirement specifications."""

import pytest

from repro.core.spec import LatencyBudget, QualityTarget
from repro.errors import ConfigurationError


class TestQualityTarget:
    def test_construction(self):
        target = QualityTarget(0.05)
        assert target.threshold == 0.05

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range_rejected(self, threshold):
        with pytest.raises(ConfigurationError):
            QualityTarget(threshold)

    def test_describe(self):
        assert "0.05" in QualityTarget(0.05).describe()

    def test_frozen(self):
        target = QualityTarget(0.05)
        with pytest.raises(AttributeError):
            target.threshold = 0.1  # type: ignore[misc]


class TestLatencyBudget:
    def test_construction(self):
        assert LatencyBudget(2.0).seconds == 2.0

    def test_zero_allowed(self):
        assert LatencyBudget(0.0).seconds == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyBudget(-1.0)

    def test_describe(self):
        assert "2" in LatencyBudget(2.0).describe()
