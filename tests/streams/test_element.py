"""Tests for the stream element data model."""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from repro.engine import process_pool
from repro.engine.process_pool import decode_chunk, encode_chunk
from repro.errors import ConfigurationError, StreamOrderError
from repro.streams.element import StreamElement, ensure_arrival_order


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


class TestConstructorContract:
    """The hand-written constructor keeps the dataclass's behaviour."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_floating_payloads_become_float(self, dtype):
        el = StreamElement(1.0, dtype(2.5), "k", 1.5, 0)
        assert type(el.value) is float and el.value == 2.5
        # An element built past the constructor still holds the numpy
        # value; with_arrival goes through the constructor and converts it.
        raw = StreamElement.__new__(StreamElement)
        object.__setattr__(raw, "event_time", 1.0)
        object.__setattr__(raw, "value", dtype(0.5))
        object.__setattr__(raw, "key", None)
        object.__setattr__(raw, "arrival_time", None)
        object.__setattr__(raw, "seq", 3)
        moved = raw.with_arrival(2.0)
        assert type(moved.value) is float and moved.value == 0.5
        assert moved.seq == 3

    def test_ints_bools_and_objects_stay_as_they_are(self):
        big = 2**63 + 1
        for value in (big, True, "text", (1, 2), np.int64(7)):
            assert StreamElement(0.0, value).value is value

    def test_positional_and_keyword_construction_agree(self):
        positional = StreamElement(1.0, 2.0, "k", 3.0, 4)
        keyword = StreamElement(
            seq=4, arrival_time=3.0, key="k", value=2.0, event_time=1.0
        )
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert StreamElement(1.0, 2.0) == StreamElement(
            event_time=1.0, value=2.0, key=None, arrival_time=None, seq=-1
        )

    def test_pickle_and_replace_round_trips(self):
        el = StreamElement(1.0, 2.0, ("k", 1), 3.0, 4)
        assert pickle.loads(pickle.dumps(el)) == el
        assert dataclasses.replace(el) == el
        assert dataclasses.replace(el, seq=5) == StreamElement(1.0, 2.0, ("k", 1), 3.0, 5)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(el, arrival_time=0.5)

    @pytest.mark.parametrize("event_time", [-1.0, math.nan])
    def test_decode_chunk_validates_forged_event_times(self, event_time):
        payload = bytearray(encode_chunk([StreamElement(1.0, 2.0, "k", 3.0, 0)]))
        struct.pack_into("<d", payload, process_pool._CHUNK_HEADER.size, event_time)
        with pytest.raises(ConfigurationError, match="event_time"):
            decode_chunk(bytes(payload))


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
