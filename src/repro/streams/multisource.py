"""Multi-source stream merging.

Real deployments ingest one logical stream from many physical sources
(sensors, partitions, gateways), each roughly ordered on its own but
mutually skewed.  :func:`merge_streams` interleaves several
arrival-ordered streams into the single arrival-ordered stream an operator
consumes; the companion frontier rule lives in
:class:`repro.engine.watermarks.MultiSourceWatermarkHandler`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.streams.element import StreamElement


def merge_streams(streams: list[list[StreamElement]]) -> list[StreamElement]:
    """Merge arrival-ordered streams into one arrival-ordered stream.

    Sequence numbers are reassigned in event-time order over the merged
    stream so tie-breaking stays deterministic and unique.
    """
    merged = [element for stream in streams for element in stream]
    for element in merged:
        if element.arrival_time is None:
            raise ConfigurationError(
                "merge_streams requires arrival timestamps on every element"
            )
    by_event = sorted(merged, key=lambda el: (el.event_time, el.arrival_time))
    renumbered = [
        element.with_arrival(element.arrival_time, seq=index)
        for index, element in enumerate(by_event)
    ]
    renumbered.sort(key=StreamElement.arrival_sort_key)
    return renumbered
