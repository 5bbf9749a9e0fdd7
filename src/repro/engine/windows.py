"""Window semantics: sliding, tumbling and session window assigners.

A window assigner maps an event timestamp to the set of windows the event
belongs to.  Windows are half-open event-time intervals ``[start, end)``;
a window may be *closed* (its aggregate emitted) once the operator's
event-time frontier passes ``end``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.streams.timebase import DurationS, EventTimeStamp


@dataclass(frozen=True, order=True, slots=True)
class Window:
    """A half-open event-time interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"window end must exceed start, got [{self.start}, {self.end})"
            )

    @property
    def size(self) -> DurationS:
        return self.end - self.start

    def contains(self, timestamp: EventTimeStamp) -> bool:
        """Whether ``start <= timestamp < end``."""
        return self.start <= timestamp < self.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start:g},{self.end:g})"


class WindowAssigner(ABC):
    """Maps event timestamps to windows."""

    @abstractmethod
    def assign(self, timestamp: EventTimeStamp) -> list[Window]:
        """All windows containing ``timestamp``, in ascending start order."""

    @abstractmethod
    def windows_ending_in(self, start: EventTimeStamp, end: EventTimeStamp) -> list[Window]:
        """All windows whose end lies in ``(start, end]`` — used by oracles."""

    def describe(self) -> str:
        """Short label for logs and experiment tables."""
        return type(self).__name__


class SlidingWindowAssigner(WindowAssigner):
    """Sliding windows of ``size`` seconds advancing every ``slide`` seconds.

    Window starts are aligned to multiples of ``slide`` (offset 0), matching
    the convention of Flink/Beam.  An event at time ``t`` belongs to
    ``ceil(size / slide)`` windows (fewer near the stream start).
    """

    def __init__(self, size: DurationS, slide: DurationS) -> None:
        if size <= 0 or slide <= 0:
            raise ConfigurationError(
                f"size and slide must be positive, got size={size}, slide={slide}"
            )
        if slide > size:
            raise ConfigurationError(
                f"slide must not exceed size, got size={size}, slide={slide}"
            )
        self.size = size
        self.slide = slide

    def assign(self, timestamp: EventTimeStamp) -> list[Window]:
        if timestamp < 0:
            raise ConfigurationError(f"timestamp must be non-negative, got {timestamp}")
        # Window starts are i * slide.  Work in index space (one rounding per
        # start instead of an accumulating subtraction) and verify membership
        # explicitly, so floating-point drift can neither include a window
        # that misses the timestamp nor skip one that covers it.
        last_index = math.floor(timestamp / self.slide)
        while last_index * self.slide > timestamp:
            last_index -= 1
        while (last_index + 1) * self.slide <= timestamp:
            last_index += 1
        windows = []
        index = last_index
        while index >= 0:
            start = index * self.slide
            if start + self.size <= timestamp:
                break
            window = Window(start, start + self.size)
            if window.contains(timestamp):
                windows.append(window)
            index -= 1
        windows.reverse()
        return windows

    def windows_ending_in(self, start: EventTimeStamp, end: EventTimeStamp) -> list[Window]:
        first_end = math.floor(start / self.slide) * self.slide + self.size
        while first_end <= start:
            first_end += self.slide
        windows = []
        window_end = first_end
        while window_end <= end:
            window_start = window_end - self.size
            if window_start >= 0:
                windows.append(Window(window_start, window_end))
            window_end += self.slide
        return windows

    def describe(self) -> str:
        return f"sliding(size={self.size:g}s, slide={self.slide:g}s)"


class TumblingWindowAssigner(SlidingWindowAssigner):
    """Non-overlapping fixed windows: sliding with ``slide == size``."""

    def __init__(self, size: float) -> None:
        super().__init__(size=size, slide=size)

    def describe(self) -> str:
        return f"tumbling(size={self.size:g}s)"


def sliding(size: DurationS, slide: DurationS) -> SlidingWindowAssigner:
    """Convenience constructor used by the fluent query API."""
    return SlidingWindowAssigner(size, slide)


def tumbling(size: float) -> TumblingWindowAssigner:
    """Convenience constructor used by the fluent query API."""
    return TumblingWindowAssigner(size)


class SessionWindowMerger:
    """Session windows: events closer than ``gap`` merge into one session.

    Unlike sliding windows, session boundaries depend on the data, so the
    merger tracks per-key open sessions as (start, last_event, values-count)
    and exposes which sessions can close given a frontier.  This class holds
    the merge logic only; the session operator composes it with an
    accumulator store.
    """

    def __init__(self, gap: DurationS) -> None:
        if gap <= 0:
            raise ConfigurationError(f"gap must be positive, got {gap}")
        self.gap = gap
        # key -> sorted list of (start, last_event_time)
        self._sessions: dict[object, list[tuple[float, float]]] = {}

    def add(self, key: object, timestamp: EventTimeStamp) -> tuple[float, float]:
        """Fold ``timestamp`` into the sessions of ``key``.

        Returns the (start, last_event_time) of the session containing the
        event after any merges.
        """
        sessions = self._sessions.setdefault(key, [])
        touching = [
            (start, last)
            for start, last in sessions
            if start - self.gap <= timestamp <= last + self.gap
        ]
        merged_start = min([timestamp] + [start for start, __ in touching])
        merged_last = max([timestamp] + [last for __, last in touching])
        sessions[:] = [entry for entry in sessions if entry not in touching]
        sessions.append((merged_start, merged_last))
        sessions.sort()
        return (merged_start, merged_last)

    def closable(self, key: object, frontier: EventTimeStamp) -> list[tuple[float, float]]:
        """Sessions of ``key`` that can no longer grow given ``frontier``.

        A session is closable when ``last_event + gap <= frontier``: no
        future event can extend it.  Closable sessions are removed.
        """
        sessions = self._sessions.get(key, [])
        done = [entry for entry in sessions if entry[1] + self.gap <= frontier]
        if done:
            sessions[:] = [entry for entry in sessions if entry not in done]
        return done

    def keys(self) -> list[object]:
        """Keys that currently have open sessions."""
        return list(self._sessions)

    def open_count(self) -> int:
        """Total open sessions across all keys."""
        return sum(len(sessions) for sessions in self._sessions.values())
