"""Tests for the stream element data model."""

import math

import pytest

from repro.errors import ConfigurationError, StreamOrderError
from repro.streams.element import StreamElement, Watermark, ensure_arrival_order


class TestStreamElement:
    def test_basic_construction(self):
        el = StreamElement(event_time=1.5, value=42.0, key="a", seq=3)
        assert el.event_time == 1.5
        assert el.value == 42.0
        assert el.key == "a"
        assert el.seq == 3
        assert el.arrival_time is None

    def test_negative_event_time_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamElement(event_time=-0.1, value=0.0)

    @pytest.mark.parametrize(
        "timestamps",
        [
            {"event_time": math.nan},
            {"event_time": math.inf},
            {"event_time": math.inf, "arrival_time": math.inf},
            {"event_time": 1.0, "arrival_time": math.nan},
        ],
    )
    def test_non_finite_timestamps_rejected(self, timestamps):
        with pytest.raises(ConfigurationError):
            StreamElement(value=0.0, **timestamps)

    def test_arrival_before_event_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamElement(event_time=5.0, value=0.0, arrival_time=4.9)

    def test_arrival_equal_event_allowed(self):
        el = StreamElement(event_time=5.0, value=0.0, arrival_time=5.0)
        assert el.delay == 0.0

    def test_delay(self):
        el = StreamElement(event_time=2.0, value=0.0, arrival_time=3.25)
        assert el.delay == pytest.approx(1.25)

    def test_delay_without_arrival_raises(self):
        el = StreamElement(event_time=2.0, value=0.0)
        with pytest.raises(ConfigurationError):
            __ = el.delay

    def test_with_arrival_preserves_fields(self):
        el = StreamElement(event_time=2.0, value=7.0, key="k", seq=9)
        arrived = el.with_arrival(3.0)
        assert arrived.arrival_time == 3.0
        assert arrived.value == 7.0
        assert arrived.key == "k"
        assert arrived.seq == 9
        # original untouched (immutability)
        assert el.arrival_time is None

    def test_with_arrival_sets_seq(self):
        el = StreamElement(event_time=2.0, value=7.0)
        arrived = el.with_arrival(3.0, seq=5)
        assert arrived.seq == 5

    def test_sort_keys(self):
        el = StreamElement(event_time=2.0, value=0.0, arrival_time=3.0, seq=4)
        assert el.arrival_sort_key() == (3.0, 4)
        assert el.event_sort_key() == (2.0, 4)

    def test_arrival_sort_key_requires_arrival(self):
        el = StreamElement(event_time=2.0, value=0.0)
        with pytest.raises(ConfigurationError):
            el.arrival_sort_key()

    def test_distinct_elements_tying_on_seq_have_no_order(self):
        first = StreamElement(event_time=1.0, value=1.0, seq=0)
        clash = StreamElement(event_time=1.0, value=2.0, seq=0)
        with pytest.raises(StreamOrderError, match="unique seq"):
            sorted([(1.0, 0, first), (1.0, 0, clash)])
        # A field-equal duplicate compares equal before ``<`` is asked.
        copy = StreamElement(event_time=1.0, value=1.0, seq=0)
        assert sorted([(1.0, 0, first), (1.0, 0, copy)])[0][2] is first

    def test_immutability(self):
        el = StreamElement(event_time=1.0, value=2.0)
        with pytest.raises(AttributeError):
            el.value = 3.0  # type: ignore[misc]


class TestWatermark:
    def test_construction(self):
        assert Watermark(5.0).timestamp == 5.0


class TestEnsureArrivalOrder:
    def test_accepts_sorted(self):
        elements = [
            StreamElement(event_time=0.0, value=0, arrival_time=1.0, seq=0),
            StreamElement(event_time=0.5, value=0, arrival_time=1.0, seq=1),
            StreamElement(event_time=0.2, value=0, arrival_time=2.0, seq=2),
        ]
        assert ensure_arrival_order(elements) is elements

    def test_rejects_unsorted(self):
        elements = [
            StreamElement(event_time=0.0, value=0, arrival_time=2.0, seq=0),
            StreamElement(event_time=0.5, value=0, arrival_time=1.0, seq=1),
        ]
        with pytest.raises(StreamOrderError):
            ensure_arrival_order(elements)

    def test_rejects_tie_with_decreasing_seq(self):
        elements = [
            StreamElement(event_time=0.0, value=0, arrival_time=1.0, seq=5),
            StreamElement(event_time=0.5, value=0, arrival_time=1.0, seq=1),
        ]
        with pytest.raises(StreamOrderError):
            ensure_arrival_order(elements)

    def test_empty_ok(self):
        assert ensure_arrival_order([]) == []
