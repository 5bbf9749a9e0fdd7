"""Every repro-lint rule must catch its bad fixture and pass its good one."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import render_json, render_text, run_lint
from repro.analysis.lint.__main__ import main as lint_main
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).parent.parent.parent / "src"


def findings_for(fixture: str, rule: str):
    """Lint one fixture file with a single rule selected."""
    return run_lint([FIXTURES / fixture], select=[rule])


# --------------------------------------------------------------------- #
# R01 — wall clock / nondeterminism


def test_r01_catches_wall_clock_and_global_rng():
    findings = findings_for("engine/r01_bad.py", "R01")
    assert len(findings) == 8
    assert {f.rule for f in findings} == {"R01"}
    messages = " ".join(f.message for f in findings)
    assert "wall-clock" in messages
    assert "default_rng" in messages
    assert "uuid.uuid4" in messages


def test_r01_allows_seeded_generators():
    assert findings_for("engine/r01_good.py", "R01") == []


def test_r01_only_applies_to_engine_scoped_paths():
    assert findings_for("r01_unscoped.py", "R01") == []


# --------------------------------------------------------------------- #
# R02 — scalar/batched parity


def test_r02_catches_parity_drift():
    findings = findings_for("r02_bad.py", "R02")
    assert {f.rule for f in findings} == {"R02"}
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("BatchedOnlyHandler" in m and "without overriding" in m for m in messages)
    assert any("ScalarOverrideChild" in m and "specialized" in m for m in messages)


def test_r02_accepts_parity_preserving_classes():
    assert findings_for("r02_good.py", "R02") == []


def test_r02_covers_aggregate_functions():
    findings = findings_for("r02_agg_bad.py", "R02")
    assert {f.rule for f in findings} == {"R02"}
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any(
        "BatchedOnlySum" in m and "without overriding" in m for m in messages
    )
    assert any(
        "ScalarOverrideAggregate" in m and "specialized" in m for m in messages
    )


def test_r02_accepts_parity_preserving_aggregates():
    assert findings_for("r02_agg_good.py", "R02") == []


def test_r02_sees_folds_bound_in_the_class_body():
    findings = findings_for("r02_agg_bound.py", "R02")
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    assert "BoundBatchedOnly overrides add_many without overriding add" in messages
    assert "BoundScalarChild overrides add but inherits the specialized add_many" in messages
    assert "BoundPair " not in messages


# --------------------------------------------------------------------- #
# R03 — float timestamp equality


def test_r03_catches_exact_time_equality():
    findings = findings_for("r03_bad.py", "R03")
    assert len(findings) == 3
    assert all("times_equal" in f.message for f in findings)


def test_r03_allows_ordering_sentinels_and_helper():
    assert findings_for("r03_good.py", "R03") == []


# --------------------------------------------------------------------- #
# suppressions, selection, reporters, CLI


def test_inline_suppressions_are_honoured():
    assert run_lint([FIXTURES / "engine" / "suppressed.py"]) == []


def test_suppressions_can_be_ignored():
    findings = run_lint(
        [FIXTURES / "engine" / "suppressed.py"], honour_suppressions=False
    )
    assert len(findings) == 2


def test_unknown_rule_id_is_rejected():
    with pytest.raises(ConfigurationError, match="R99"):
        run_lint([FIXTURES], select=["R99"])


def test_text_reporter_format():
    findings = findings_for("r03_bad.py", "R03")
    text = render_text(findings)
    assert "r03_bad.py:" in text
    assert "R03" in text
    assert "3 finding(s)" in text
    assert render_text([]) == "repro-lint: clean"


def test_json_reporter_roundtrip():
    findings = findings_for("r03_bad.py", "R03")
    payload = json.loads(render_json(findings))
    assert payload["total"] == 3
    assert payload["counts"]["R03"] == 3
    assert all(item["rule"] == "R03" for item in payload["findings"])


def test_cli_exit_codes(capsys):
    assert lint_main([str(FIXTURES / "r03_bad.py")]) == 1
    assert lint_main([str(FIXTURES / "r03_good.py")]) == 0
    assert lint_main(["--list-rules"]) == 0
    assert lint_main(["--select", "R99", str(FIXTURES)]) == 2
    # R04-R15 and R17 are retired ids, not renumbered: selecting them is
    # an error.
    assert lint_main(["--select", "R05,R11-R15", str(FIXTURES)]) == 2
    assert lint_main(["--select", "R04,R06-R10", str(FIXTURES)]) == 2
    assert lint_main(["--select", "R17", str(FIXTURES)]) == 2
    assert lint_main(["--select", "R16-R20", str(FIXTURES)]) == 2
    out = capsys.readouterr()
    assert "R01" in out.out
    assert "unknown lint rule id(s): R05, R11, R12, R13, R14, R15" in out.err
    assert "unknown lint rule id(s): R04, R06, R07, R08, R09, R10" in out.err
    assert "unknown lint rule id(s): R17" in out.err


def test_fixture_directory_lints_with_findings_from_every_core_rule():
    findings = run_lint([FIXTURES])
    # The numeric rules may legitimately fire on these fixtures too; the
    # syntactic rules must all fire.
    assert {f.rule for f in findings} >= {"R01", "R02", "R03"}


def test_source_tree_is_lint_clean():
    # src/ must be clean under the full rule catalog; an accepted finding
    # carries an inline ``# repro-lint: disable=`` pragma with its reason.
    repo_root = Path(__file__).resolve().parents[2]
    assert run_lint([repo_root / "src"]) == []


# --------------------------------------------------------------------- #
# suppression typos are hard errors (not silent no-ops)

# Written to tmp_path rather than the fixtures tree: the directory-wide
# fixture sweep in test_lint_rules.py must stay lintable.
SUPPRESS_UNKNOWN = '''"""Fixture: a suppression comment naming an unknown rule id."""


def frontier_check(a, b):
    """The directive below is a typo and must hard-error, not no-op."""
    return a == b  # repro-lint: disable=R99 -- meant R03
'''


@pytest.fixture
def typo_file(tmp_path):
    path = tmp_path / "suppress_unknown.py"
    path.write_text(SUPPRESS_UNKNOWN, encoding="utf-8")
    return path


def test_unknown_suppression_id_is_a_configuration_error(typo_file):
    with pytest.raises(ConfigurationError, match=r"unknown rule id.*R99"):
        run_lint([typo_file])


def test_unknown_suppression_id_names_file_and_line(typo_file):
    with pytest.raises(ConfigurationError, match=r"suppress_unknown\.py:6"):
        run_lint([typo_file])


def test_cli_exits_2_on_unknown_suppression_id(typo_file, capsys):
    status = lint_main([str(typo_file)])
    assert status == 2
    assert "R99" in capsys.readouterr().err


def test_docstring_mentions_of_directives_do_not_error(tmp_path):
    # Only real comments count: documenting `disable=R99` in a docstring
    # (as the lint package itself does) must not trip the typo check.
    path = tmp_path / "documented.py"
    path.write_text(
        '"""Docs may say `# repro-lint: disable=R99` without erroring."""\n',
        encoding="utf-8",
    )
    assert run_lint([path]) == []


def test_known_suppression_ids_do_not_error():
    # The repo source uses real suppressions; linting src must not raise.
    findings = run_lint([REPO_SRC], select=["R01", "R03", "R18"])
    assert findings == []
