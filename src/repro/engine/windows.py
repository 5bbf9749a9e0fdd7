"""Window semantics: sliding and tumbling window assigners.

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

