"""``WindowResult``'s contract as a frozen, slotted dataclass.

Its ``__init__`` is written by hand (it fills the slots through their
member descriptors; see ``repro.engine.operator``), so everything the
generated one gave for free is pinned here.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.engine.operator import WindowResult
from repro.engine.windows import Window

WINDOW = Window(4.0, 8.0)
FIELDS = dict(
    key="a", window=WINDOW, value=2.5, count=3, emit_time=9.5, latency=1.5,
    revision=2, flushed=True,
)


def test_positional_and_keyword_construction_agree():
    positional = WindowResult("a", WINDOW, 2.5, 3, 9.5, 1.5, 2, True)
    by_keyword = WindowResult(**FIELDS)
    assert positional == by_keyword
    assert hash(positional) == hash(by_keyword)
    assert dataclasses.asdict(by_keyword) == {**FIELDS, "window": dataclasses.asdict(WINDOW)}
    assert [field.name for field in dataclasses.fields(WindowResult)] == list(FIELDS)
    assert repr(positional) == (
        "WindowResult(key='a', window=Window(start=4.0, end=8.0), value=2.5, count=3, "
        "emit_time=9.5, latency=1.5, revision=2, flushed=True)"
    )


def test_revision_and_flushed_default():
    result = WindowResult("a", WINDOW, 2.5, 3, 9.5, 1.5)
    assert (result.revision, result.flushed) == (0, False)
    assert result == WindowResult(**{**FIELDS, "revision": 0, "flushed": False})
    assert result != WindowResult(**FIELDS)


def test_a_missing_or_unknown_field_is_a_type_error():
    with pytest.raises(TypeError):
        WindowResult("a", WINDOW, 2.5, 3, 9.5)
    with pytest.raises(TypeError):
        WindowResult(**FIELDS, shards=2)


def test_replace_builds_a_new_result():
    result = WindowResult(**FIELDS)
    corrected = dataclasses.replace(result, value=3.0, revision=3)
    assert (corrected.value, corrected.revision) == (3.0, 3)
    assert dataclasses.replace(corrected, value=2.5, revision=2) == result
    assert result.value == 2.5


def test_pickle_round_trip():
    result = WindowResult(**FIELDS)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(result, protocol))
        assert clone == result and clone is not result
        assert hash(clone) == hash(result)


def test_results_are_immutable_and_carry_no_dict():
    result = WindowResult(**FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.value = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del result.value
    assert not hasattr(result, "__dict__")
    assert result.value == 2.5
