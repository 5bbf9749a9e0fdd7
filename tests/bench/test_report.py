"""Tests for experiment result containers and table rendering."""

import json
import math
import pathlib

import pytest

from repro.bench.report import (
    ExperimentResult,
    format_value,
    is_monotone,
    render_table,
)
from repro.errors import ExperimentError


def sample_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="EX",
        title="Sample",
        columns=["name", "value"],
        notes=["a note"],
    )
    result.add_row(name="alpha", value=1.5)
    result.add_row(name="beta", value=None)
    return result


class TestExperimentResult:
    def test_add_row_requires_all_columns(self):
        result = ExperimentResult("EX", "t", ["a", "b"])
        with pytest.raises(ExperimentError):
            result.add_row(a=1)

    def test_extra_keys_allowed(self):
        result = ExperimentResult("EX", "t", ["a"])
        result.add_row(a=1, extra="kept but not rendered")
        assert result.rows[0]["extra"] == "kept but not rendered"

    def test_column_extraction(self):
        result = sample_result()
        assert result.column("name") == ["alpha", "beta"]

    def test_unknown_column_rejected(self):
        with pytest.raises(ExperimentError):
            sample_result().column("bogus")


class TestFormatValue:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, "-"),
            (True, "yes"),
            (False, "no"),
            (3, "3"),
            ("text", "text"),
            (1.5, "1.5"),
            (0.0, "0"),
            (math.nan, "nan"),
            (math.inf, "inf"),
        ],
    )
    def test_cases(self, value, expected):
        assert format_value(value) == expected

    def test_small_numbers_use_scientific(self):
        assert "e" in format_value(1.23e-7)

    def test_regular_numbers_four_decimals(self):
        assert format_value(0.123456) == "0.1235"


class TestRenderTable:
    def test_contains_all_cells(self):
        text = render_table(sample_result())
        assert "EX: Sample" in text
        assert "alpha" in text
        assert "1.5" in text
        assert "note: a note" in text

    def test_box_is_aligned(self):
        lines = render_table(sample_result()).splitlines()
        table_lines = [l for l in lines if l.startswith(("|", "+"))]
        assert len({len(l) for l in table_lines}) == 1

    def test_empty_rows_render(self):
        result = ExperimentResult("EX", "empty", ["a"])
        text = render_table(result)
        assert "| a" in text


class TestIsMonotone:
    def test_increasing(self):
        assert is_monotone([1, 2, 2, 3], increasing=True)
        assert not is_monotone([1, 3, 2], increasing=True)

    def test_decreasing(self):
        assert is_monotone([3, 2, 2, 1], increasing=False)
        assert not is_monotone([3, 1, 2], increasing=False)

    def test_tolerance_absorbs_ripples(self):
        assert is_monotone([1.0, 0.99, 2.0], increasing=True, tolerance=0.02)
        assert not is_monotone([1.0, 0.9, 2.0], increasing=True, tolerance=0.02)

    def test_empty_and_single(self):
        assert is_monotone([], increasing=True)
        assert is_monotone([5.0], increasing=False)


class TestExport:
    def test_csv_roundtrip_shape(self, tmp_path):
        import csv

        from repro.bench.report import to_csv

        result = sample_result()
        path = tmp_path / "out.csv"
        assert to_csv(result, path) == 2
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["name", "value"]
        assert rows[1][0] == "alpha"
        assert len(rows) == 3

    def test_json_payload(self, tmp_path):
        import json

        from repro.bench.report import to_json

        result = sample_result()
        path = tmp_path / "out.json"
        assert to_json(result, path) == 2
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "EX"
        assert payload["rows"][0]["value"] == 1.5
        assert payload["notes"] == ["a note"]

    def test_creates_parent_dirs(self, tmp_path):
        from repro.bench.report import to_csv

        path = tmp_path / "a" / "b" / "out.csv"
        to_csv(sample_result(), path)
        assert path.exists()


class TestE21Summary:
    """The quick bench's E21 artifact: core-scoped gates plus one info entry."""

    @staticmethod
    def summary(monkeypatch, cpu_count, process2_eps):
        from repro.bench import quick

        monkeypatch.setattr(quick.os, "cpu_count", lambda: cpu_count)
        result = ExperimentResult(
            "E21", "t", ["config", "eps", "results_equal", "identical_to_serial"]
        )
        for config, eps in [
            ("single tree", 100.0), ("serial(2)", 50.0),
            ("process(2)", process2_eps), ("process(4)", 80.0),
        ]:
            result.add_row(
                config=config, eps=eps, results_equal=True, identical_to_serial=None
            )
        return quick, quick.summarize(result, scale=0.1)

    def test_process2_over_tree_is_recorded_and_never_fails(self, monkeypatch):
        quick, summary = self.summary(monkeypatch, cpu_count=2, process2_eps=60.0)
        assert summary["gates"]["process2_over_tree"] == {"status": "info", "ratio": 0.6}
        assert summary["gates"]["process2_ge_serial2"]["status"] == "pass"
        assert quick.check_e21(summary) == []

    def test_process2_over_tree_is_skipped_below_two_cores(self, monkeypatch):
        quick, summary = self.summary(monkeypatch, cpu_count=1, process2_eps=40.0)
        entry = summary["gates"]["process2_over_tree"]
        assert entry["status"] == "skipped" and entry["ratio"] == 0.4
        assert quick.check_e21(summary) == []


class TestE17Summary:
    """The quick bench's E17 artifact fails the run on any diverging row."""

    def test_one_diverging_row_fails_the_check(self):
        from repro.bench import quick

        result = ExperimentResult(
            "E17", "t", ["config", "overlap", "eps", "baseline", "ratio", "results_equal"]
        )
        result.add_row(
            config="naive ov=20", overlap=20, eps=100.0, baseline=None,
            ratio=None, results_equal=True,
        )
        result.add_row(
            config="tree ov=20", overlap=20, eps=150.0, baseline="naive ov=20",
            ratio=1.5, results_equal=False,
        )
        summary = quick.summarize(result, scale=0.1)
        assert quick.check_results_equal(summary) == [
            "E17 result mismatch at tree ov=20"
        ]


class TestCheckedInArtifacts:
    """The ``BENCH_e*.json`` files at the repository root are one
    ``make bench-quick`` run: exactly the summarized experiments, each in
    the summary schema, all from one commit at one scale."""

    ROOT = pathlib.Path(__file__).resolve().parents[2]

    def test_artifacts_are_one_quick_run(self):
        from repro.bench import quick

        expected = {f"BENCH_{eid.lower()}.json": eid for eid in quick.SUMMARIZED}
        paths = sorted(self.ROOT.glob("BENCH_e*.json"))
        assert [path.name for path in paths] == sorted(expected)
        summaries = [json.loads(path.read_text()) for path in paths]
        for path, summary in zip(paths, summaries):
            eid = expected[path.name]
            assert summary["experiment"] == eid
            assert set(summary) == {"experiment", "title", "fingerprint", "rows"} | (
                {"gates"} if eid == "E21" else set()
            )
            assert set(summary["fingerprint"]) == {
                "nproc", "python", "platform", "scale", "git_commit"
            }
            assert summary["rows"] and all(row["results_equal"] for row in summary["rows"])
        assert len({s["fingerprint"]["git_commit"] for s in summaries}) == 1
        assert len({s["fingerprint"]["scale"] for s in summaries}) == 1
