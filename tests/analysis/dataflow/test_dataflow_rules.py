"""R06-R10 must catch their bad fixtures and pass their good ones."""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[3] / "src"


def findings_for(fixture: str, rule: str):
    """Lint one fixture file with a single rule selected."""
    return run_lint([FIXTURES / fixture], select=[rule])


# --------------------------------------------------------------------- #
# R06 — cross-domain arithmetic/comparison


def test_r06_catches_cross_domain_mixing():
    findings = findings_for("r06_bad.py", "R06")
    assert {f.rule for f in findings} == {"R06"}
    messages = " ".join(f.message for f in findings)
    assert "adding two time instants" in messages
    assert "mixes time axes" in messages
    assert len(findings) == 2


def test_r06_allows_sanctioned_time_arithmetic():
    assert findings_for("r06_good.py", "R06") == []


# --------------------------------------------------------------------- #
# R07 — frontier contract


def test_r07_catches_every_contract_violation_shape():
    findings = findings_for("r07_bad.py", "R07")
    messages = sorted(f.message for f in findings)
    assert any("proc-time" in m and "advance" in m.lower() for m in messages)
    assert any("rebound outside __init__" in m for m in messages)
    assert any("raw write" in m for m in messages)
    assert any("frontier contract requires an event-time" in m for m in messages)
    assert len(findings) == 4


def test_r07_allows_conforming_handler():
    assert findings_for("r07_good.py", "R07") == []


# --------------------------------------------------------------------- #
# R08 — slack math (engine scoped)


def test_r08_catches_duration_instant_mixing():
    findings = findings_for("engine/r08_bad.py", "R08")
    assert len(findings) == 2
    assert all("duration" in f.message for f in findings)


def test_r08_allows_anchored_slack_math():
    assert findings_for("engine/r08_good.py", "R08") == []


def test_r08_is_engine_scoped(tmp_path):
    unscoped = tmp_path / "r08_unscoped.py"
    unscoped.write_text(
        (FIXTURES / "engine" / "r08_bad.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert run_lint([unscoped], select=["R08"]) == []


# --------------------------------------------------------------------- #
# R09 — RunMetrics domains


def test_r09_catches_wrong_domain_metrics():
    findings = findings_for("r09_bad.py", "R09")
    assert len(findings) == 3
    messages = " ".join(f.message for f in findings)
    assert "wall_time_s" in messages
    assert "n_elements" in messages


def test_r09_allows_consistent_metrics():
    assert findings_for("r09_good.py", "R09") == []


# --------------------------------------------------------------------- #
# R10 — unannotated public time APIs (engine scoped)


def test_r10_catches_bare_float_time_signatures():
    findings = findings_for("engine/r10_bad.py", "R10")
    assert len(findings) == 4
    messages = " ".join(f.message for f in findings)
    assert "DurationS" in messages
    assert "EventTimeStamp" in messages


def test_r10_allows_marked_signatures():
    assert findings_for("engine/r10_good.py", "R10") == []


# --------------------------------------------------------------------- #
# seeded-bug demos: mutate the REAL engine sources and watch the rules fire


def test_seeded_proc_time_frontier_advance_is_caught_by_r07(tmp_path):
    source = (REPO_SRC / "repro" / "engine" / "handlers.py").read_text(
        encoding="utf-8"
    )
    # SlackHandler.offer: the one scalar advance of the K-slack handlers.
    buggy = "self._front.advance(clock - self.slack_for(element))"
    assert buggy in source  # the mutation target must exist
    mutated = source.replace(
        buggy, "self._front.advance(element.arrival_time)"
    )
    target = tmp_path / "engine" / "handlers.py"
    target.parent.mkdir()
    target.write_text(mutated, encoding="utf-8")
    findings = run_lint([target], select=["R07"])
    assert findings, "R07 must catch a frontier advanced from arrival time"
    assert all("proc-time" in f.message for f in findings)


def test_unmutated_handlers_pass_r07(tmp_path):
    target = tmp_path / "engine" / "handlers.py"
    target.parent.mkdir()
    target.write_text(
        (REPO_SRC / "repro" / "engine" / "handlers.py").read_text(
            encoding="utf-8"
        ),
        encoding="utf-8",
    )
    assert run_lint([target], select=["R07"]) == []


def test_seeded_instant_addition_is_caught_by_r06(tmp_path):
    source = (REPO_SRC / "repro" / "engine" / "session_op.py").read_text(
        encoding="utf-8"
    )
    sane = "element.event_time + self.gap"
    assert sane in source
    mutated = source.replace(sane, "element.event_time + self._close_frontier")
    target = tmp_path / "engine" / "session_op.py"
    target.parent.mkdir()
    target.write_text(mutated, encoding="utf-8")
    findings = run_lint([target], select=["R06"])
    assert findings, "R06 must catch event_time + frontier"
    assert all("adding two time instants" in f.message for f in findings)


# --------------------------------------------------------------------- #
# whole-program run: clean and fast


def test_source_tree_is_dataflow_clean_and_fast():
    started = time.perf_counter()
    findings = run_lint([REPO_SRC], select=["R06", "R07", "R08", "R09", "R10"])
    elapsed = time.perf_counter() - started
    assert findings == []
    assert elapsed < 5.0, f"whole-program analysis took {elapsed:.2f}s"
