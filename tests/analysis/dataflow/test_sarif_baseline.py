"""SARIF reporter shape, finding fingerprints, and the extended CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import expand_rule_ids, run_lint
from repro.analysis.lint.__main__ import main as lint_main
from repro.analysis.lint.model import Finding
from repro.analysis.dataflow.sarif import finding_fingerprint, sarif_report
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"


def _findings():
    return run_lint([FIXTURES / "r06_bad.py"], select=["R06"])


# --------------------------------------------------------------------- #
# SARIF 2.1.0 shape


def test_sarif_report_matches_2_1_0_shape():
    report = sarif_report(_findings(), {"R06": "cross-domain mixing"})
    assert report["version"] == "2.1.0"
    assert report["$schema"].endswith("sarif-2.1.0.json")
    (run,) = report["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert any(rule["id"] == "R06" for rule in driver["rules"])
    assert run["results"], "findings must be emitted as results"
    for result in run["results"]:
        assert result["ruleId"] == "R06"
        assert result["level"] == "error"
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("r06_bad.py")
        assert physical["region"]["startLine"] >= 1
        assert physical["region"]["startColumn"] >= 1
        assert result["partialFingerprints"]["reproLint/v1"]


def test_sarif_report_is_json_serializable():
    json.dumps(sarif_report(_findings()))


# --------------------------------------------------------------------- #
# fingerprints


def test_fingerprint_is_line_drift_resistant():
    a = Finding(rule="R06", path="x.py", line=3, col=1, message="boom")
    b = Finding(rule="R06", path="x.py", line=33, col=9, message="boom")
    c = Finding(rule="R06", path="x.py", line=3, col=1, message="other")
    assert finding_fingerprint(a) == finding_fingerprint(b)
    assert finding_fingerprint(a) != finding_fingerprint(c)


# --------------------------------------------------------------------- #
# rule-range expansion and the CLI


def test_rule_range_expansion():
    assert expand_rule_ids("R06-R10") == ["R06", "R07", "R08", "R09", "R10"]
    assert expand_rule_ids("r01,R03") == ["R01", "R03"]
    assert expand_rule_ids("R01,R06-R07") == ["R01", "R06", "R07"]
    with pytest.raises(ConfigurationError):
        expand_rule_ids("R10-R06")
    with pytest.raises(ConfigurationError):
        expand_rule_ids("Rxx-R09")


def test_cli_accepts_rule_ranges(capsys):
    bad = str(FIXTURES / "r06_bad.py")
    assert lint_main(["--rules", "R06-R10", bad]) == 1
    assert lint_main(["--rules", "R07-R10", bad]) == 0
    capsys.readouterr()


def test_cli_sarif_output(tmp_path, capsys):
    out = tmp_path / "lint.sarif"
    status = lint_main(
        [
            "--rules",
            "R06",
            "--format",
            "sarif",
            "--output",
            str(out),
            str(FIXTURES / "r06_bad.py"),
        ]
    )
    assert status == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["version"] == "2.1.0"
    assert report["runs"][0]["results"]
    capsys.readouterr()
