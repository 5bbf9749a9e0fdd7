"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_delay_model
from repro.errors import ConfigurationError
from repro.streams.delay import (
    ConstantDelay,
    ExponentialDelay,
    LognormalDelay,
    MixtureDelay,
    ParetoDelay,
    UniformDelay,
)
from repro.streams.io import read_trace


class TestParseDelayModel:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("const:0.5", ConstantDelay),
            ("uniform:0.1,0.9", UniformDelay),
            ("exp:0.4", ExponentialDelay),
            ("pareto:1.8,1.0", ParetoDelay),
            ("lognormal:-1.0,0.8", LognormalDelay),
            ("mix:0.9*exp:0.2|0.1*pareto:1.8,1.0", MixtureDelay),
        ],
    )
    def test_known_specs(self, spec, cls):
        assert isinstance(parse_delay_model(spec), cls)

    def test_parameters_applied(self):
        model = parse_delay_model("const:0.75")
        assert model.delay == 0.75

    def test_mixture_weights(self):
        model = parse_delay_model("mix:3*const:0.1|1*const:0.5")
        assert model.mean() == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "spec", ["bogus:1", "exp:", "uniform:1", "pareto:abc,1", "mix:1*bogus:2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_delay_model(spec)


class TestGenerateCommand:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "generate",
                "--duration", "10",
                "--rate", "20",
                "--delay", "exp:0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        trace = read_trace(out)
        assert len(trace) > 100
        assert all(el.arrival_time is not None for el in trace)
        assert "wrote" in capsys.readouterr().out

    def test_keys_applied(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(
            [
                "generate",
                "--duration", "10",
                "--rate", "50",
                "--keys", "a,b",
                "--out", str(out),
            ]
        )
        assert {el.key for el in read_trace(out)} == {"a", "b"}

    def test_deterministic_seed(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (out1, out2):
            main(
                ["generate", "--duration", "5", "--rate", "10",
                 "--seed", "9", "--out", str(out)]
            )
        assert out1.read_text() == out2.read_text()


class TestRunCommand:
    @pytest.fixture
    def trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(
            ["generate", "--duration", "30", "--rate", "40",
             "--delay", "exp:0.5", "--out", str(out)]
        )
        return str(out)

    def test_quality_mode(self, trace, capsys):
        code = main(
            ["run", trace, "--window", "5", "--slide", "1",
             "--aggregate", "count", "--quality", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean error" in out
        assert "aq-k-slack" in out

    def test_fixed_slack_mode(self, trace, capsys):
        code = main(
            ["run", trace, "--window", "5", "--slide", "1", "--slack", "1.0"]
        )
        assert code == 0
        assert "k-slack" in capsys.readouterr().out

    def test_default_is_no_buffer(self, trace, capsys):
        main(["run", trace, "--window", "5", "--slide", "1"])
        assert "no-buffer" in capsys.readouterr().out

    def test_no_assess_skips_oracle(self, trace, capsys):
        main(["run", trace, "--window", "5", "--slide", "1", "--no-assess"])
        assert "mean error" not in capsys.readouterr().out

    def test_show_results(self, trace, capsys):
        main(
            ["run", trace, "--window", "5", "--slide", "1",
             "--show-results", "3"]
        )
        out = capsys.readouterr().out
        assert out.count("lat=") == 3

    def test_removed_sliced_mode_is_error(self, trace, capsys):
        code = main(
            ["run", trace, "--window", "5", "--slide", "1", "--mode", "sliced"]
        )
        assert code == 2
        assert 'use mode="tree"' in capsys.readouterr().err

    def test_sharded_run(self, trace, capsys):
        code = main(
            ["run", trace, "--window", "5", "--slide", "1",
             "--slack", "1.0", "--mode", "tree", "--shards", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded(4)x" in out
        assert "results" in out

    def test_sharded_matches_unsharded_counts(self, trace, capsys):
        # The trace is unkeyed, so it runs in one shard: under a slack that
        # drops elements the sharded rows are the unsharded rows.
        args = ["run", trace, "--window", "5", "--slide", "1", "--slack", "0.2",
                "--aggregate", "count", "--no-assess", "--show-results", "100000"]
        main(args)
        base = capsys.readouterr().out
        main(args + ["--shards", "4"])
        sharded = capsys.readouterr().out

        def rows(out):
            return [line for line in out.splitlines() if line.startswith("  ")]

        assert rows(base) and rows(sharded) == rows(base)
        line = next(l for l in base.splitlines() if l.startswith("results"))
        assert line in sharded

    def test_invalid_shard_count_is_error(self, trace, capsys):
        code = main(
            ["run", trace, "--window", "5", "--slide", "1", "--shards", "-3"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_is_error(self, tmp_path, capsys):
        code = main(
            ["run", str(tmp_path / "absent.csv"), "--window", "5", "--slide", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_without_arrivals_is_error(self, tmp_path, rng, capsys):
        from repro.streams.generators import generate_stream
        from repro.streams.io import write_trace

        path = tmp_path / "inorder.csv"
        write_trace(path, generate_stream(duration=5, rate=10, rng=rng))
        code = main(["run", str(path), "--window", "5", "--slide", "1"])
        assert code == 2


class TestExperimentCommand:
    def test_runs_named_experiment(self, capsys):
        code = main(["experiment", "E8", "--scale", "0.05"])
        assert code == 0
        assert "E8:" in capsys.readouterr().out

    def test_unknown_experiment_is_error(self, capsys):
        code = main(["experiment", "E99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestExperimentExport:
    def test_out_dir_writes_csv_and_json(self, tmp_path, capsys):
        code = main(
            ["experiment", "E8", "--scale", "0.05", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "e8.csv").exists()
        assert (tmp_path / "e8.json").exists()
        assert "exported" in capsys.readouterr().out


class TestQueryCommand:
    @pytest.fixture
    def trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(
            ["generate", "--duration", "30", "--rate", "40",
             "--delay", "exp:0.5", "--out", str(out)]
        )
        return str(out)

    def test_sql_query_runs(self, trace, capsys):
        code = main(
            ["query", trace,
             "SELECT count(*) FROM stream GROUP BY HOP(5, 1) WITH QUALITY 0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean error" in out
        assert "aq-k-slack" in out

    def test_sliced_flag(self, trace, capsys):
        sql = "SELECT mean(value) FROM stream GROUP BY HOP(10, 2) WITH SLACK 1"
        assert main(["query", trace, "--mode", "tree", sql]) == 0
        capsys.readouterr()
        # The slice store's former name is rejected, naming the survivor.
        assert main(["query", trace, "--mode", "sliced", sql]) == 2
        assert 'use mode="tree"' in capsys.readouterr().err

    def test_bad_sql_is_error(self, trace, capsys):
        code = main(["query", trace, "SELECT bogus FROM"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


def run_module(*args):
    """Run ``python -m <args>`` from the repository root, bounded in time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )


class TestNonFiniteSizes:
    """A NaN or infinite size is refused at once (it used to loop forever)."""

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_generate(self, tmp_path, duration):
        done = run_module(
            "repro", "generate", "--duration", duration, "--rate", "10",
            "--out", str(tmp_path / "trace.csv"),
        )
        assert done.returncode == 2
        assert "finite" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_experiment(self, scale):
        done = run_module("repro", "experiment", "E8", "--scale", scale)
        assert done.returncode == 2
        assert "finite" in done.stderr and "Traceback" not in done.stderr

    def test_quick_bench_rejects_zero_scale(self, tmp_path):
        done = run_module(
            "repro.bench.quick", "--scale", "0", "--out-dir", str(tmp_path)
        )
        assert done.returncode == 2
        assert "scale must be positive" in done.stderr
        assert "Traceback" not in done.stderr

    def test_experiments_script_needs_a_scale_value(self):
        done = run_module("repro.bench.experiments", "E8", "--scale")
        assert done.returncode == 2
        assert "--scale" in done.stderr and "Traceback" not in done.stderr
