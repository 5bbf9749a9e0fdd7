"""SARIF reporter shape, finding fingerprints, and the extended CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import expand_rule_ids, run_lint
from repro.analysis.lint.__main__ import main as lint_main
from repro.analysis.lint.model import Finding
from repro.analysis.lint.reporting import finding_fingerprint, sarif_report
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"


def _findings():
    return run_lint([FIXTURES / "r03_bad.py"], select=["R03"])


# --------------------------------------------------------------------- #
# SARIF 2.1.0 shape


def test_sarif_report_matches_2_1_0_shape():
    report = sarif_report(_findings(), {"R03": "float timestamp equality"})
    assert report["version"] == "2.1.0"
    assert report["$schema"].endswith("sarif-2.1.0.json")
    (run,) = report["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert any(rule["id"] == "R03" for rule in driver["rules"])
    assert run["results"], "findings must be emitted as results"
    for result in run["results"]:
        assert result["ruleId"] == "R03"
        assert result["level"] == "error"
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith("r03_bad.py")
        assert physical["region"]["startLine"] >= 1
        assert physical["region"]["startColumn"] >= 1
        assert result["partialFingerprints"]["reproLint/v1"]


def test_sarif_report_is_json_serializable():
    json.dumps(sarif_report(_findings()))


# --------------------------------------------------------------------- #
# fingerprints


def test_fingerprint_is_line_drift_resistant():
    a = Finding(rule="R03", path="x.py", line=3, col=1, message="boom")
    b = Finding(rule="R03", path="x.py", line=33, col=9, message="boom")
    c = Finding(rule="R03", path="x.py", line=3, col=1, message="other")
    assert finding_fingerprint(a) == finding_fingerprint(b)
    assert finding_fingerprint(a) != finding_fingerprint(c)


# --------------------------------------------------------------------- #
# rule-range expansion and the CLI


def test_rule_range_expansion():
    assert expand_rule_ids("R01-R03") == ["R01", "R02", "R03"]
    assert expand_rule_ids("r01,R03") == ["R01", "R03"]
    assert expand_rule_ids("R01,R16-R17") == ["R01", "R16", "R17"]
    with pytest.raises(ConfigurationError):
        expand_rule_ids("R20-R16")
    with pytest.raises(ConfigurationError):
        expand_rule_ids("Rxx-R19")


def test_cli_accepts_rule_ranges(capsys):
    bad = str(FIXTURES / "r03_bad.py")
    assert lint_main(["--rules", "R01-R03", bad]) == 1
    assert lint_main(["--rules", "R01-R02", bad]) == 0
    capsys.readouterr()


def test_cli_sarif_output(tmp_path, capsys):
    out = tmp_path / "lint.sarif"
    status = lint_main(
        [
            "--rules",
            "R03",
            "--format",
            "sarif",
            "--output",
            str(out),
            str(FIXTURES / "r03_bad.py"),
        ]
    )
    assert status == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["version"] == "2.1.0"
    assert report["runs"][0]["results"]
    capsys.readouterr()
