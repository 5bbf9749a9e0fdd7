"""Smoke tests for every experiment definition at tiny scale.

The benchmark suite checks result *shapes* at moderate scale; these tests
only assert that each experiment builds a well-formed table quickly, so a
broken experiment fails in the unit suite and not first in a long benchmark
run.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import ExperimentResult, render_table
from repro.errors import ExperimentError

TINY = 0.04


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_builds_table(experiment_id):
    result = run_experiment(experiment_id, scale=TINY)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.rows, experiment_id
    for row in result.rows:
        for column in result.columns:
            assert column in row
    # Renders without raising and includes the id.
    assert experiment_id in render_table(result)


def test_lowercase_id_accepted():
    result = run_experiment("e8", scale=TINY)
    assert result.experiment_id == "E8"


def test_unknown_id_rejected():
    with pytest.raises(ExperimentError):
        run_experiment("E99")


def test_main_renders_selected(capsys):
    from repro.bench.experiments import main

    assert main(["E8", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "E8:" in out


def test_module_runs_once_under_python_dash_m():
    """``python -m repro.bench.experiments`` is not imported by its package
    first, so runpy has no half-run copy to warn about."""
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.bench.experiments",
         "--help"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout
