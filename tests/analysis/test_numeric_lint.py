"""Numeric lint rules R16-R20, the inventory, and waiver/annotation typos."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import expand_rule_ids, run_lint
from repro.analysis.lint.__main__ import main as lint_main
from repro.analysis.lint.model import Project, SourceFile, discover_files
from repro.analysis.numeric.__main__ import main as numeric_main
from repro.analysis.numeric.sites import (
    NUMERIC_VALUES,
    build_inventory,
    inventory_for,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures" / "numeric"
REPO_SRC = Path(__file__).parent.parent.parent / "src"


def findings_for(fixture: str, rule: str):
    """Lint one fixture file with a single rule selected."""
    return run_lint([FIXTURES / fixture], select=[rule])


def project_for(fixture: str) -> Project:
    """A one-file project over a fixture, for direct inventory calls."""
    path = FIXTURES / fixture
    return Project([SourceFile.load(p) for p in discover_files([path])])


# --------------------------------------------------------------------- #
# numeric inventory (inheritance lineage)


def test_inventory_follows_imported_base_names():
    # The fixture never defines AggregateFunction; the raw base-name
    # string is enough to establish lineage.
    inventory = build_inventory(project_for("r16_bad.py"))
    assert "NaiveRunningSum" in inventory.classes
    record = inventory.classes["NaiveRunningSum"]
    assert record.via == "AggregateFunction"
    assert record.declared == "compensated"
    assert record.effective == "compensated"


def test_inventory_lineage_is_transitive():
    inventory = build_inventory(project_for("r19_bad.py"))
    # Grandchild -> UndeclaredAggregate -> AggregateFunction.
    assert "UndeclaredGrandchild" in inventory.classes
    assert inventory.classes["UndeclaredGrandchild"].via == "AggregateFunction"


def test_inventory_resolves_inherited_annotations():
    inventory = build_inventory(project_for("r19_good.py"))
    child = inventory.classes["InheritingChild"]
    assert child.declared is None
    assert child.effective == "exact"
    assert child.effective_origin == "AnnotatedBase"
    base = inventory.classes["AnnotatedBase"]
    assert base.effective == "exact"
    assert base.effective_origin == ""  # declared locally


def test_inventory_is_cached_per_project():
    project = project_for("r16_bad.py")
    assert inventory_for(project) is inventory_for(project)


def test_source_tree_inventory_is_fully_annotated():
    """Every numeric class in src/ resolves a valid rounding discipline."""
    files = [
        SourceFile.load(path, root=REPO_SRC)
        for path in discover_files([REPO_SRC])
    ]
    inventory = build_inventory(Project(files))
    assert len(inventory.classes) >= 30  # aggregates + estimators + trackers
    assert "SumAggregate" in inventory.classes
    unresolved = [
        name
        for name, record in inventory.classes.items()
        if record.effective not in NUMERIC_VALUES
    ]
    assert unresolved == []


# --------------------------------------------------------------------- #
# R16 — bare float folds in aggregate entry points


def test_r16_catches_bare_and_longhand_folds():
    findings = findings_for("r16_bad.py", "R16")
    assert {f.rule for f in findings} == {"R16"}
    assert len(findings) == 4
    messages = " ".join(f.message for f in findings)
    assert "bare fold" in messages
    assert "repro.core.numeric" in messages
    # Waived and exact-discipline classes never appear.
    assert "WaivedRunningSum" not in messages
    assert "ExactCounter" not in messages


def test_r16_flags_every_fold_entry_point():
    methods = sorted({f.message.split()[0] for f in findings_for("r16_bad.py", "R16")})
    assert methods == [
        "NaiveRunningSum.add",
        "NaiveRunningSum.add_many",
        "NaiveRunningSum.merge",
    ]


def test_r16_accepts_compensated_primitives():
    assert findings_for("r16_good.py", "R16") == []


# --------------------------------------------------------------------- #
# R17 — subtraction-based retraction


def test_r17_catches_subtractive_eviction():
    findings = findings_for("r17_bad.py", "R17")
    assert len(findings) == 2
    assert all("subtraction-based retraction" in f.message for f in findings)
    assert all("RetractableSum" in f.message for f in findings)


def test_r17_accepts_retractable_sum_and_waived_integers():
    assert findings_for("r17_good.py", "R17") == []


# --------------------------------------------------------------------- #
# R18 — equality on accumulated floats


def test_r18_catches_accumulated_equality():
    findings = findings_for("r18_bad.py", "R18")
    assert len(findings) == 4
    assert all("floats_close" in f.message for f in findings)
    lines = sorted(f.line for f in findings)
    assert len(set(lines)) == 4  # one finding per comparison site


def test_r18_accepts_floats_close_and_integer_comparisons():
    assert findings_for("r18_good.py", "R18") == []


# --------------------------------------------------------------------- #
# R19 — mandatory __numeric__ annotations


def test_r19_catches_every_undeclared_lineage_class():
    findings = findings_for("r19_bad.py", "R19")
    assert len(findings) == 3
    messages = " ".join(f.message for f in findings)
    assert "UndeclaredEstimator" in messages
    assert "UndeclaredAggregate" in messages
    assert "UndeclaredGrandchild" in messages
    assert "__numeric__" in messages


def test_r19_accepts_declared_and_inherited_annotations():
    assert findings_for("r19_good.py", "R19") == []


# --------------------------------------------------------------------- #
# R20 — mixed scalar/batched summation orders


def test_r20_catches_numpy_reductions_in_add_many():
    findings = findings_for("r20_bad.py", "R20")
    assert len(findings) == 2
    messages = sorted(f.message for f in findings)
    assert "np.sum()" in messages[1]  # SplitOrderSum
    assert "sum()" in messages[0]  # SplitOrderMoments (method-call form)
    assert all("Python order" in m for m in messages)
    joined = " ".join(messages)
    assert "FullyBatched" not in joined  # both sides numpy: no split
    assert "WaivedBatch" not in joined  # waiver concedes the shortcut


def test_r20_accepts_shared_primitive():
    assert findings_for("r20_good.py", "R20") == []


# --------------------------------------------------------------------- #
# selection plumbing


def test_rule_range_expands_to_numeric_block():
    assert expand_rule_ids("R16-R20") == ["R16", "R17", "R18", "R19", "R20"]


def test_source_tree_is_clean_under_numeric_rules():
    findings = run_lint([REPO_SRC], select=expand_rule_ids("R16-R20"))
    assert findings == []


# --------------------------------------------------------------------- #
# unknown __numeric__ values are hard errors (exit 2), not findings

# Written to tmp_path rather than the fixtures tree: the directory-wide
# fixture sweep in test_lint_rules.py must stay lintable, and an invalid
# annotation anywhere in the tree would abort the whole sweep.
INVALID_ANNOTATION = '''"""Fixture: a numeric class with a typo'd annotation."""


class TypoSum(AggregateFunction):
    """The value selects NumSan's drift budget; typos must not no-op."""

    __numeric__ = "compansated"
'''

NON_LITERAL_ANNOTATION = '''"""Fixture: a computed (non-literal) annotation."""

DISCIPLINE = "exact"


class ComputedSum(AggregateFunction):
    """Annotations must be auditable string literals."""

    __numeric__ = DISCIPLINE
'''


@pytest.fixture
def invalid_annotation_file(tmp_path):
    path = tmp_path / "typo_annotation.py"
    path.write_text(INVALID_ANNOTATION, encoding="utf-8")
    return path


def test_unknown_numeric_value_is_a_configuration_error(invalid_annotation_file):
    with pytest.raises(ConfigurationError, match=r"compansated"):
        run_lint([invalid_annotation_file])


def test_unknown_numeric_value_names_file_and_line(invalid_annotation_file):
    with pytest.raises(ConfigurationError, match=r"typo_annotation\.py:7"):
        run_lint([invalid_annotation_file])


def test_cli_exits_2_on_unknown_numeric_value(invalid_annotation_file, capsys):
    status = lint_main([str(invalid_annotation_file)])
    assert status == 2
    assert "compansated" in capsys.readouterr().err


def test_numeric_cli_exits_2_on_unknown_numeric_value(
    invalid_annotation_file, capsys
):
    status = numeric_main(["inventory", str(invalid_annotation_file)])
    assert status == 2
    assert "compansated" in capsys.readouterr().err


def test_non_literal_annotation_is_a_configuration_error(tmp_path):
    path = tmp_path / "computed_annotation.py"
    path.write_text(NON_LITERAL_ANNOTATION, encoding="utf-8")
    with pytest.raises(ConfigurationError, match="non-literal"):
        run_lint([path])


# --------------------------------------------------------------------- #
# unknown waiver values are hard errors too

# The waiver comment is assembled at runtime so this *test* file never
# contains the literal pattern in a real comment token.
WAIVER_PREFIX = "# repro: " + "numeric="

INVALID_WAIVER = (
    '"""Fixture: a waiver comment naming an unknown value."""\n'
    "\n"
    "\n"
    "class WaiverTypoSum(AggregateFunction):\n"
    '    """The waiver below is a typo and must hard-error, not no-op."""\n'
    "\n"
    '    __numeric__ = "compensated"\n'
    "\n"
    "    def add(self, acc, value):\n"
    '        """Fold with a bad waiver."""\n'
    f"        acc[0] += value  {WAIVER_PREFIX}reasoc - meant reassoc\n"
    "        return acc\n"
)


@pytest.fixture
def invalid_waiver_file(tmp_path):
    path = tmp_path / "waiver_typo.py"
    path.write_text(INVALID_WAIVER, encoding="utf-8")
    return path


def test_unknown_waiver_value_is_a_configuration_error(invalid_waiver_file):
    with pytest.raises(ConfigurationError, match=r"unknown numeric waiver"):
        run_lint([invalid_waiver_file])


def test_unknown_waiver_value_names_file_and_line(invalid_waiver_file):
    with pytest.raises(ConfigurationError, match=r"waiver_typo\.py:11"):
        run_lint([invalid_waiver_file])


def test_cli_exits_2_on_unknown_waiver_value(invalid_waiver_file, capsys):
    status = lint_main([str(invalid_waiver_file)])
    assert status == 2
    assert "reasoc" in capsys.readouterr().err


def test_docstring_mentions_of_waivers_do_not_error(tmp_path):
    # Only real comment tokens count: documenting the waiver syntax in a
    # docstring (as repro.analysis.numeric.rules itself does) is inert.
    path = tmp_path / "documented.py"
    path.write_text(
        f'"""Docs may spell `{WAIVER_PREFIX}anything` without erroring."""\n',
        encoding="utf-8",
    )
    assert run_lint([path]) == []


# --------------------------------------------------------------------- #
# CLI smoke


def test_inventory_cli_smoke(capsys):
    status = numeric_main(["inventory", "src"])
    out = capsys.readouterr().out
    assert status == 0
    assert "SumAggregate" in out
    assert "compensated" in out
    assert "inherited from" in out
