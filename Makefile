# Developer conveniences; the only hard dependency is a Python environment
# with numpy, pytest, pytest-benchmark and hypothesis installed.

PY ?= python

.PHONY: install test lint lint-sarif sanitize numcheck typecheck docs docs-check linkcheck bench bench-quick perf-ab perfbench-test experiments examples artifacts clean

# Editable install; --no-build-isolation keeps it working offline (the
# deprecated `setup.py develop` path is gone).
install:
	$(PY) -m pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Engine-specific invariant linter: syntactic rules R01-R03 and the
# float-soundness rules R16 and R18-R20 (see docs/ANALYSIS.md and
# docs/NUMERICS.md).
lint:
	$(PY) -m repro.analysis.lint src/

# SARIF 2.1.0 report for code-scanning upload (CI does this on every run).
lint-sarif:
	$(PY) -m repro.analysis.lint --format sarif --output lint.sarif src/ || true

# StreamSan checker self-tests plus two sanitized, batched end-to-end smoke
# runs of the contribution's handler (AQ-K, quality target): under the
# window driver and under the quality-driven interval join.
sanitize:
	$(PY) -m pytest tests/analysis/ -q
	$(PY) -c "import numpy as np; \
	from repro.engine.aggregate_op import WindowAggregateOperator; \
	from repro.engine.aggregates import make_aggregate; \
	from repro.core.aqk import AQKSlackHandler; \
	from repro.core.spec import QualityTarget; \
	from repro.engine.pipeline import run_pipeline; \
	from repro.engine.windows import SlidingWindowAssigner; \
	from repro.streams.delay import ExponentialDelay; \
	from repro.streams.disorder import inject_disorder; \
	from repro.streams.generators import generate_stream; \
	rng = np.random.default_rng(3); \
	stream = inject_disorder(generate_stream(duration=60, rate=100, rng=rng), ExponentialDelay(0.5), rng); \
	handler = AQKSlackHandler(QualityTarget(0.05), 'mean', window_size=4.0); \
	op = WindowAggregateOperator(SlidingWindowAssigner(size=4, slide=1), make_aggregate('mean'), handler); \
	out = run_pipeline(stream, op, batch_size=256, sanitize=True); \
	print('StreamSan smoke run clean:', len(out.results), 'results')"
	$(PY) -c "import numpy as np; \
	from repro.core.pair_quality import QualityDrivenIntervalJoin; \
	from repro.engine.pipeline import run_pipeline; \
	from repro.streams.delay import ExponentialDelay; \
	from repro.streams.disorder import inject_disorder; \
	from repro.streams.generators import generate_stream; \
	rng = np.random.default_rng(3); \
	stream = inject_disorder(generate_stream(duration=60, rate=100, rng=rng, keys=('a', 'b')), ExponentialDelay(0.5), rng); \
	join = QualityDrivenIntervalJoin(0.5, lambda el: 'left' if el.seq % 2 else 'right', threshold=0.05); \
	out = run_pipeline(stream, join, batch_size=256, sanitize=True); \
	print('StreamSan join smoke run clean:', len(out.results), 'pairs,', join.lost, 'lost')"

# Numeric-safety gate: float-soundness lint (R16, R18-R20; R17 is a
# retired id) and the annotation inventory (see docs/NUMERICS.md).
numcheck:
	$(PY) -m repro.analysis.lint --select R16,R18-R20 src/
	$(PY) -m repro.analysis.numeric inventory

# mypy is optional tooling: strict-check the simulated-time core when the
# environment has it, skip gracefully when it does not.
typecheck:
	@if $(PY) -c "import mypy" 2>/dev/null; then \
		$(PY) -m mypy --strict src/repro/engine src/repro/core; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

# Regenerate the auto-generated API reference (docs/API.md) from the
# source tree; `docs-check` is the CI staleness gate, `linkcheck`
# validates relative links and anchors across README.md and docs/*.md.
docs:
	$(PY) -m repro.docs

docs-check:
	$(PY) -m repro.docs --check

linkcheck:
	$(PY) -m repro.docs --check-links

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-quick:
	$(PY) -m repro.bench.quick --scale 0.1 --out-dir .

# Paired perfbench runs against a parent commit (the A/B every perf PR
# reports): exact metrics and values digest compared to the last digit,
# median / quartiles / wins for the rest, as the markdown table CHANGES.md
# takes; WORKLOAD may hold several names (one table each, one extracted
# parent).  Under a minute per pair at the benchmark's 15 s; run nothing else.
PAIRS ?= 10
perf-ab:
	$(PY) benchmarks/perf_ab.py --parent $(PARENT) $(foreach w,$(WORKLOAD),--workload $(w)) --pairs $(PAIRS)

# The benchmark's own self-tests (scale 0.05, under a minute): the only
# guard on the contract a perf PR must keep without editing perfbench/ --
# deferred emission on the sharded workload, pickles_per_chunk <= 2, equal
# digests on the overlap-64 pair.  Run from the repository root.
perfbench-test:
	$(PY) -m pytest perfbench/tests -q

experiments:
	$(PY) -m repro.bench.experiments all

artifacts:
	$(PY) -m repro.cli experiment E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 \
	    E12 E13 E14 E15 E16 E17 E18 E19 --out-dir results

examples:
	$(PY) examples/quickstart.py --duration 60
	$(PY) examples/financial_monitoring.py --duration 60
	$(PY) examples/sensor_outage.py --duration 120
	$(PY) examples/latency_budget_leaderboard.py --duration 60
	$(PY) examples/multi_gateway_operations.py --duration 60

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info
