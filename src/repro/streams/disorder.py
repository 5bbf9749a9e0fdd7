"""Disorder injection and disorder measurement.

``inject_disorder`` turns an in-order (event-time sorted) stream into the
arrival-ordered stream an operator actually observes, by sampling one delay
per element and re-sorting by arrival time.

``DisorderStats`` quantifies how disordered a stream is, with the metrics
used across the evaluation: the fraction of out-of-order elements, delay
quantiles, and the maximum element displacement in time units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.streams.delay import DelayModel
from repro.streams.element import StreamElement


def inject_disorder(
    elements: list[StreamElement],
    model: DelayModel,
    rng: np.random.Generator,
) -> list[StreamElement]:
    """Assign arrival times from ``model`` and return arrival-ordered elements.

    Args:
        elements: In-order stream (ascending event time); each element's
            existing arrival time, if any, is discarded.
        model: Delay distribution sampled once per element.
        rng: Random generator; pass a seeded generator for reproducibility.

    Returns:
        A new list sorted by (arrival_time, seq); sequence numbers are
        assigned in event-time order so ties resolve deterministically.
    """
    delayed = []
    for seq, element in enumerate(elements):
        delay = model.sample(rng, element.event_time)
        if delay < 0:
            raise ConfigurationError(
                f"delay model {model.describe()} produced negative delay {delay}"
            )
        delayed.append(element.with_arrival(element.event_time + delay, seq=seq))
    delayed.sort(key=StreamElement.arrival_sort_key)
    return delayed


def count_inversions(sequence: list[float]) -> int:
    """Count pairs (i, j) with i < j but sequence[i] > sequence[j].

    Uses a merge-sort sweep, O(n log n).  An in-order stream has zero
    inversions; a fully reversed one has n*(n-1)/2.
    """

    def merge_count(values: list[float]) -> tuple[list[float], int]:
        if len(values) <= 1:
            return values, 0
        mid = len(values) // 2
        left, left_inv = merge_count(values[:mid])
        right, right_inv = merge_count(values[mid:])
        merged: list[float] = []
        inversions = left_inv + right_inv
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                inversions += len(left) - i
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inversions

    return merge_count(list(sequence))[1]


@dataclass(frozen=True)
class DisorderStats:
    """Summary of how out-of-order an arrival-ordered stream is.

    Attributes:
        n_elements: Stream length.
        out_of_order_fraction: Fraction of elements whose event time is
            smaller than the running maximum at their arrival (i.e. elements
            that a zero-slack operator would consider late).
        normalized_inversions: Inversion count divided by the worst case
            n*(n-1)/2; 0 means sorted, 1 means reversed.
        mean_delay / p50_delay / p95_delay / p99_delay / max_delay:
            Quantiles of the element delays (arrival - event time).
        max_displacement: Largest (running-max event time - event time) at
            arrival; the minimum slack K that would reorder the stream
            perfectly.
    """

    n_elements: int
    out_of_order_fraction: float
    normalized_inversions: float
    mean_delay: float
    p50_delay: float
    p95_delay: float
    p99_delay: float
    max_delay: float
    max_displacement: float


def measure_disorder(elements: list[StreamElement]) -> DisorderStats:
    """Compute :class:`DisorderStats` for an arrival-ordered stream."""
    if not elements:
        return DisorderStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    event_times = [element.event_time for element in elements]
    delays = np.array([element.delay for element in elements])

    running_max = float("-inf")
    late = 0
    max_displacement = 0.0
    for event_time in event_times:
        if event_time < running_max:
            late += 1
            max_displacement = max(max_displacement, running_max - event_time)
        else:
            running_max = event_time

    n = len(elements)
    worst_case = n * (n - 1) / 2
    normalized = count_inversions(event_times) / worst_case if worst_case else 0.0

    return DisorderStats(
        n_elements=n,
        out_of_order_fraction=late / n,
        normalized_inversions=normalized,
        mean_delay=float(delays.mean()),
        p50_delay=float(np.quantile(delays, 0.5)),
        p95_delay=float(np.quantile(delays, 0.95)),
        p99_delay=float(np.quantile(delays, 0.99)),
        max_delay=float(delays.max()),
        max_displacement=max_displacement,
    )


def inject_fifo_disorder(
    elements: list[StreamElement],
    model: DelayModel,
    rng: np.random.Generator,
    channel_of=None,
) -> list[StreamElement]:
    """Disorder injection over order-preserving (FIFO) channels.

    Models TCP-like transport: each channel delivers its own elements in
    send order (an element's arrival is at least its channel predecessor's
    arrival), while elements of *different* channels still interleave
    arbitrarily.  With a single channel the output is fully in order —
    cross-channel skew is the only disorder source, which is the regime
    :class:`repro.engine.watermarks.MultiSourceWatermarkHandler` exploits.

    Args:
        elements: In-order stream (ascending event time).
        model: Per-element base delay distribution.
        rng: Seeded random generator.
        channel_of: Maps an element to its channel id; defaults to the
            element key (one FIFO connection per key).
    """
    if channel_of is None:
        channel_of = lambda element: element.key  # noqa: E731 - small adapter
    last_arrival: dict[object, float] = {}
    delayed = []
    for seq, element in enumerate(elements):
        delay = model.sample(rng, element.event_time)
        if delay < 0:
            raise ConfigurationError(
                f"delay model {model.describe()} produced negative delay {delay}"
            )
        channel = channel_of(element)
        arrival = element.event_time + delay
        previous = last_arrival.get(channel)
        if previous is not None and arrival < previous:
            arrival = previous
        last_arrival[channel] = arrival
        delayed.append(element.with_arrival(arrival, seq=seq))
    delayed.sort(key=StreamElement.arrival_sort_key)
    return delayed
