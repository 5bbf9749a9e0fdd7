"""Tests for window assigners."""

import math

import pytest

from repro.engine.windows import (
    SlidingWindowAssigner,
    TumblingWindowAssigner,
    Window,
    sliding,
    tumbling,
)
from repro.errors import ConfigurationError


class TestWindow:
    def test_size(self):
        assert Window(2.0, 5.0).size == 3.0

    def test_contains_half_open(self):
        window = Window(2.0, 5.0)
        assert window.contains(2.0)
        assert window.contains(4.999)
        assert not window.contains(5.0)
        assert not window.contains(1.999)

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            Window(2.0, 2.0)
        with pytest.raises(ConfigurationError):
            Window(2.0, 1.0)

    def test_ordering(self):
        assert Window(0, 10) < Window(2, 12)

    def test_hashable(self):
        assert len({Window(0, 10), Window(0, 10), Window(2, 12)}) == 2


class TestSlidingWindowAssigner:
    def test_timestamp_in_every_assigned_window(self):
        assigner = SlidingWindowAssigner(size=10, slide=3)
        for ts in (0.0, 2.9, 3.0, 7.5, 29.0, 100.7):
            windows = assigner.assign(ts)
            assert windows, f"no windows for {ts}"
            for window in windows:
                assert window.contains(ts)

    def test_window_count_in_steady_state(self):
        assigner = SlidingWindowAssigner(size=10, slide=2)
        assert len(assigner.assign(50.0)) == 5

    def test_fewer_windows_near_origin(self):
        assigner = SlidingWindowAssigner(size=10, slide=2)
        assert len(assigner.assign(0.0)) == 1
        assert len(assigner.assign(3.0)) == 2

    def test_alignment_to_slide_multiples(self):
        assigner = SlidingWindowAssigner(size=10, slide=2)
        for window in assigner.assign(25.0):
            assert window.start % 2 == pytest.approx(0.0)

    def test_windows_sorted_by_start(self):
        assigner = SlidingWindowAssigner(size=10, slide=2)
        windows = assigner.assign(25.0)
        starts = [w.start for w in windows]
        assert starts == sorted(starts)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowAssigner(10, 2).assign(-1.0)

    @pytest.mark.parametrize("size,slide", [(0, 1), (10, 0), (5, 6), (-1, 1)])
    def test_bad_parameters_rejected(self, size, slide):
        with pytest.raises(ConfigurationError):
            SlidingWindowAssigner(size, slide)

    def test_describe(self):
        assert "sliding" in SlidingWindowAssigner(10, 2).describe()


class TestTumblingWindowAssigner:
    def test_single_window_per_timestamp(self):
        assigner = TumblingWindowAssigner(size=5)
        assert len(assigner.assign(12.0)) == 1
        assert assigner.assign(12.0)[0] == Window(10, 15)

    def test_partition_property(self):
        assigner = TumblingWindowAssigner(size=5)
        boundaries = assigner.assign(5.0)
        assert boundaries == [Window(5, 10)]  # end-exclusive

    def test_convenience_constructors(self):
        assert isinstance(sliding(10, 2), SlidingWindowAssigner)
        assert isinstance(tumbling(5), TumblingWindowAssigner)
        assert "tumbling" in tumbling(5).describe()

