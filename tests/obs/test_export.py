"""Exporter contracts: JSONL losslessness, Chrome trace structure.

The Chrome-trace test is the acceptance check for the Perfetto export: a
traced E4-style burst run must produce a ``trace_event`` list with named
tracks, monotone timestamps and strictly paired ``B``/``E`` duration
events — the structural properties Perfetto's importer relies on.
"""

import json
import math
from collections import defaultdict

from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import TraceEvent, TraceRecorder


def test_jsonl_round_trip_is_lossless(tmp_path, burst_run):
    __, recorder = burst_run
    path = tmp_path / "trace.jsonl"
    written = write_jsonl(recorder.events, path)
    assert written == len(recorder.events)
    loaded = read_jsonl(path)
    assert loaded == recorder.events


def test_jsonl_round_trips_non_finite_floats(tmp_path):
    events = [
        TraceEvent(
            kind="window.flush",
            sim_time=-math.inf,
            wall_time=0.0,
            fields={"nan": math.nan, "inf": math.inf, "nested": [-math.inf]},
        )
    ]
    path = tmp_path / "weird.jsonl"
    write_jsonl(events, path)
    # The file itself must be plain JSON, line by line.
    for line in path.read_text().splitlines():
        json.loads(line)
    (loaded,) = read_jsonl(path)
    assert loaded.sim_time == -math.inf
    assert math.isnan(loaded.fields["nan"])  # type: ignore[arg-type]
    assert loaded.fields["inf"] == math.inf
    assert loaded.fields["nested"] == [-math.inf]


def test_chrome_trace_of_empty_or_nonfinite_events_is_empty():
    assert chrome_trace([]) == []
    only_nonfinite = [
        TraceEvent("frontier.advance", -math.inf, 0.0, {"frontier": -math.inf})
    ]
    assert chrome_trace(only_nonfinite) == []


class TestChromeTraceStructure:
    """Structural validation of the burst-run Perfetto export."""

    def test_metadata_names_tracks(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events, run_label="burst")
        metadata = [entry for entry in entries if entry["ph"] == "M"]
        names = {entry["args"]["name"] for entry in metadata}
        assert "burst" in names  # process_name
        assert "adaptation rounds" in names
        assert "late drops + findings" in names
        assert any(name.startswith("windows (lane ") for name in names)

    def test_counter_tracks_present(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events)
        counters = {entry["name"] for entry in entries if entry["ph"] == "C"}
        assert counters == {"frontier", "buffer occupancy", "slack K"}

    def test_timestamps_are_monotone_and_rebased(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events)
        timestamps = [entry["ts"] for entry in entries if "ts" in entry]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] >= 0.0
        assert all(math.isfinite(ts) for ts in timestamps)

    def test_duration_events_pair_within_each_lane(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events)
        depth: dict[int, int] = defaultdict(int)
        open_names: dict[int, list[str]] = defaultdict(list)
        for entry in entries:
            if entry["ph"] == "B":
                depth[entry["tid"]] += 1
                open_names[entry["tid"]].append(entry["name"])
            elif entry["ph"] == "E":
                assert depth[entry["tid"]] > 0, "E without matching B"
                depth[entry["tid"]] -= 1
                assert open_names[entry["tid"]].pop() == entry["name"]
        assert all(count == 0 for count in depth.values()), "unclosed B"
        assert sum(1 for entry in entries if entry["ph"] == "B") > 0

    def test_sliding_overlap_uses_expected_lane_count(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events)
        lanes = {
            entry["tid"]
            for entry in entries
            if entry["ph"] == "M"
            and entry["args"]["name"].startswith("windows (lane ")
        }
        # 10s windows sliding every 2s keep 5 windows open concurrently.
        assert len(lanes) == 5

    def test_adaptation_instants_present(self, burst_run):
        __, recorder = burst_run
        entries = chrome_trace(recorder.events)
        instants = [entry for entry in entries if entry["ph"] == "i"]
        assert any(entry["name"] == "adaptation" for entry in instants)

    def test_write_chrome_trace_emits_loadable_json(self, tmp_path, burst_run):
        __, recorder = burst_run
        path = tmp_path / "trace.json"
        written = write_chrome_trace(recorder, path, run_label="burst")
        loaded = json.loads(path.read_text())
        assert isinstance(loaded, list)
        assert len(loaded) == written > 0
        required = {"name", "ph", "pid"}
        assert all(required <= set(entry) for entry in loaded)
