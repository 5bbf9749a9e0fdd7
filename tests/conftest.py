"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import math
import random
from array import array

import numpy as np
import pytest

from repro.engine.aggregate_op import EXECUTION_MODES, WindowAggregateOperator
from repro.engine.pipeline import run_pipeline
from repro.streams.delay import ExponentialDelay
from repro.streams.disorder import inject_disorder
from repro.streams.element import StreamElement
from repro.streams.generators import generate_stream


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_inorder_stream(rng) -> list[StreamElement]:
    """~600 elements over 30s of event time, in event order."""
    return generate_stream(duration=30.0, rate=20.0, rng=rng)


@pytest.fixture
def small_disordered_stream(rng, small_inorder_stream) -> list[StreamElement]:
    """The small stream with exponential(0.5s) delays, arrival-ordered."""
    return inject_disorder(small_inorder_stream, ExponentialDelay(0.5), rng)


def make_elements(spec: list[tuple[float, float]]) -> list[StreamElement]:
    """Build elements from (event_time, value) pairs, in the given order."""
    return [
        StreamElement(event_time=ts, value=val, seq=i)
        for i, (ts, val) in enumerate(spec)
    ]


def make_arrived(spec: list[tuple[float, float, float]]) -> list[StreamElement]:
    """Build elements from (event_time, arrival_time, value), arrival order."""
    elements = [
        StreamElement(event_time=ts, value=val, arrival_time=at, seq=i)
        for i, (ts, at, val) in enumerate(spec)
    ]
    return sorted(elements, key=StreamElement.arrival_sort_key)


def build_elements(seed: int, n_elements: int) -> list[StreamElement]:
    """A seeded arrival-ordered unkeyed stream with exponential-ish disorder."""
    rng = random.Random(seed)
    elements: list[StreamElement] = []
    arrival = 0.0
    for seq in range(n_elements):
        arrival += rng.expovariate(1.0 / 0.05)
        delay = rng.expovariate(1.0 / 0.4) if rng.random() < 0.4 else 0.0
        event = max(arrival - delay, 0.0)
        elements.append(
            StreamElement(
                event_time=event,
                value=rng.uniform(-1.0, 1.0),
                key=None,
                arrival_time=arrival,
                seq=seq,
            )
        )
    return elements


def disordered_stream(rng, duration=60, rate=50, mean_delay=0.5, keys=None):
    """A generated stream with exponential delays, arrival-ordered."""
    return inject_disorder(
        generate_stream(duration=duration, rate=rate, rng=rng, keys=keys),
        ExponentialDelay(mean_delay),
        rng,
    )


def nan_equal(a, b) -> bool:
    """``a == b``, except that a NaN equals a NaN.

    Descends lists, tuples, arrays, dicts and dataclasses: a NaN that went
    through a pickle is another object, so the identity shortcut container
    equality takes for the very same NaN no longer applies.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is not type(b):
        return a == b
    if dataclasses.is_dataclass(a):
        return all(
            nan_equal(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(nan_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple, array)):
        return len(a) == len(b) and all(map(nan_equal, a, b))
    return a == b


def emitted_window_errors(recorder) -> list[float]:
    """Observed errors of a traced naive run, over the windows it emitted.

    The reference for a slice store's ``stats.observed_errors``: naive
    also scores phantom records of missed windows, which its
    ``window.retire`` trace records carry as ``emitted = nan``.
    """
    return [
        event.fields["error"]
        for event in recorder.of_kind("window.retire")
        if not math.isnan(event.fields["emitted"])
    ]


def result_map(results):
    """Order-free view of a run's results, keyed by (key, window)."""
    return {
        (r.key, r.window): (r.value, r.count, r.latency, r.flushed) for r in results
    }


def assert_modes_match_naive(
    stream, assigner, aggregate_factory, handler_factory, feedback_horizon=None
):
    """One row of the mode-parity matrix: every store equals the reference.

    The scalar naive run is the reference; ``sliced`` and ``tree`` must
    emit the same windows with the same counts, latencies, flush marks and
    late-drop totals on the scalar path and in batches of 64 (values
    within float re-association of the merge order).  Returns the
    operators by ``(mode, batch_size)`` for row-specific checks.
    """
    operators = {}
    maps = {}
    for mode in EXECUTION_MODES:
        for batch_size in (0, 64):
            operator = WindowAggregateOperator(
                assigner, aggregate_factory(), handler_factory(),
                feedback_horizon=feedback_horizon, mode=mode,
            )
            output = run_pipeline(stream, operator, batch_size=batch_size)
            operators[mode, batch_size] = operator
            maps[mode, batch_size] = result_map(output.results)
    reference = maps["naive", 0]
    assert reference
    late_dropped = operators["naive", 0].stats.late_dropped
    for config, got in maps.items():
        assert set(got) == set(reference), config
        for slot, (value, count, latency, flushed) in reference.items():
            g_value, g_count, g_latency, g_flushed = got[slot]
            assert g_count == count, (config, slot)
            assert g_latency == latency, (config, slot)
            assert g_flushed == flushed, (config, slot)
            assert g_value == value or abs(g_value - value) <= 1e-9 * max(
                1.0, abs(value)
            ), (config, slot)
        assert operators[config].stats.late_dropped == late_dropped, config
    return operators
