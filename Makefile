# Convenience targets for the OraP reproduction

PY ?= python

.PHONY: install dev lint test verify-fast verify-robust bench bench-sim bench-sim-smoke bench-telemetry bench-corpus bench-gate campaign-smoke chaos-smoke experiments examples clean

install:
	pip install -e .

dev:
	pip install -e '.[dev]'

test:
	PYTHONPATH=src $(PY) -m pytest tests/

# static analysis: ruff + mypy over the Python sources, then the project's
# own netlist/CNF/scheme linter over every bundled artifact.  The external
# tools are skipped with a notice when not installed (`make dev` gets them);
# `repro lint` always runs.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipping (pip install -e '.[dev]')"; fi
	@if $(PY) -c "import mypy" >/dev/null 2>&1; then \
		$(PY) -m mypy --strict -p repro.lint; \
	else echo "mypy not installed; skipping (pip install -e '.[dev]')"; fi
	PYTHONPATH=src $(PY) -m repro lint --strict

# quick signal: static analysis plus everything except the slow suites
verify-fast: lint
	PYTHONPATH=src $(PY) -m pytest tests/ -m "not slow"

# robustness gate: runtime governance, fault injection, supervised
# worker fleet, kill/resume
verify-robust:
	PYTHONPATH=src $(PY) -m pytest tests/test_runtime.py \
		tests/test_checkpoint.py tests/test_faultinject.py \
		tests/test_supervisor.py tests/test_resume.py \
		tests/test_bench_io.py

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# compiled op-tape engine vs scalar simulation on the Table I workload;
# writes BENCH_sim.json (see docs/PERFORMANCE.md for the format)
bench-sim:
	PYTHONPATH=src $(PY) -m repro bench

# tiny fixed workload: fails only if the engine and the scalar oracle
# disagree — never on timing (safe for loaded CI boxes); cProfile stats
# land in .bench-profile/
bench-sim-smoke:
	PYTHONPATH=src $(PY) -m repro bench --smoke --out BENCH_sim_smoke.json \
		--profile .bench-profile

# disabled-telemetry cost on the smoke workload: counts the dispatches
# the workload performs, prices each primitive, and fails if the
# projection reaches 2%; writes BENCH_telemetry.json
bench-telemetry:
	PYTHONPATH=src $(PY) -c "from repro.telemetry import run_overhead_cli; \
		raise SystemExit(run_overhead_cli())"

# bench regression gate: regenerate BENCH_sim.json and
# BENCH_telemetry.json into .bench-fresh/ and diff them (plus the
# committed BENCH_corpus.json self-check) against the repo baselines;
# >25% slowdown on a within-run ratio, a missing metric, or an
# engine/scalar mismatch fails the build (scripts/bench_compare.py)
bench-gate:
	rm -rf .bench-fresh && mkdir -p .bench-fresh
	PYTHONPATH=src $(PY) -m repro bench --out .bench-fresh/BENCH_sim.json
	PYTHONPATH=src $(PY) -c "from repro.telemetry import run_overhead_cli; \
		raise SystemExit(run_overhead_cli(out='.bench-fresh/BENCH_telemetry.json'))"
	PYTHONPATH=src $(PY) scripts/bench_compare.py --fresh-dir .bench-fresh

# chaos harness: a --jobs 4 campaign with injected worker kills, a
# hung worker (dead heartbeat), a poison row (killed on every attempt)
# and a disk-full fault on the result cache must COMPLETE with tables
# byte-identical to an uninjected serial run (quarantined rows excluded
# and reported), then survive a torn checkpoint on --resume; nonzero
# supervisor.*/cache.degraded/checkpoint.corrupt counters are asserted
# from the merged trace (repro chaos run, src/repro/experiments/chaos.py)
chaos-smoke:
	PYTHONPATH=src $(PY) -m repro chaos run --jobs 4

# front-end parse throughput + round-trip/recovery invariants;
# refreshes BENCH_corpus.json (gated by scripts/bench_compare.py
# --only corpus against its embedded lines/s floor)
bench-corpus:
	PYTHONPATH=src $(PY) -m repro.corpus.bench --out BENCH_corpus.json

# one small campaign through every campaign layer, fully offline (the
# campaign-smoke CI job).  The packaged ISCAS/ITC fixtures are
# checksum-verified against their pins; Table I on the genuine
# iscas85-mini family then runs with the same flags:
#   cold   --jobs 2, traced, checkpointed, into a result cache wiped
#          first, so every row computes in the workers (its trace must
#          show cache.hit == 0); run under -W error::DeprecationWarning,
#          so a campaign path that reaches a deprecated spelling fails;
#   warm   against that cache: byte-identical, and its trace must show
#          a nonzero cache.hit total;
#   resume from the checkpoints alone: byte-identical;
#   incremental against .repro-cache-smoke, which CI restores across
#          runs (actions/cache): byte-identical.
# Both traces must be schema-valid and both caches must verify.  Every
# malformed netlist in tests/data/corpus_bad/ must then yield structured
# diagnostics, and a fresh BENCH_corpus.json is gated.
# .repro-cache-smoke is NOT wiped: stale entries self-invalidate via
# CACHE_VERSION salts.
SMOKE_ENV = PYTHONPATH=src
SMOKE_TABLE1_ARGS = -m repro table1 --corpus iscas85-mini \
	--patterns 256 --checkpoint-dir .ckpt-campaign-smoke
SMOKE_TABLE1 = $(SMOKE_ENV) $(PY) $(SMOKE_TABLE1_ARGS)

campaign-smoke:
	rm -rf .ckpt-campaign-smoke .repro-cache-campaign \
		TRACE_campaign_cold.jsonl TRACE_campaign_warm.jsonl
	$(SMOKE_ENV) $(PY) -m repro corpus verify
	$(SMOKE_ENV) $(PY) -m repro corpus list
	$(SMOKE_ENV) $(PY) -W error::DeprecationWarning $(SMOKE_TABLE1_ARGS) \
		--jobs 2 --cache --cache-dir .repro-cache-campaign \
		--trace TRACE_campaign_cold.jsonl > TABLE_campaign_cold.txt
	$(SMOKE_TABLE1) --jobs 2 --cache --cache-dir .repro-cache-campaign \
		--trace TRACE_campaign_warm.jsonl > TABLE_campaign_warm.txt
	cmp TABLE_campaign_cold.txt TABLE_campaign_warm.txt
	$(SMOKE_TABLE1) --resume > TABLE_campaign_resume.txt
	cmp TABLE_campaign_cold.txt TABLE_campaign_resume.txt
	$(SMOKE_TABLE1) --jobs 2 --cache --cache-dir .repro-cache-smoke \
		> TABLE_campaign_incremental.txt
	cmp TABLE_campaign_cold.txt TABLE_campaign_incremental.txt
	PYTHONPATH=src $(PY) -m repro trace validate TRACE_campaign_cold.jsonl
	PYTHONPATH=src $(PY) -m repro trace validate TRACE_campaign_warm.jsonl
	PYTHONPATH=src $(PY) -m repro trace report TRACE_campaign_warm.jsonl
	PYTHONPATH=src $(PY) -m repro cache verify --cache-dir .repro-cache-campaign
	PYTHONPATH=src $(PY) -m repro cache verify --cache-dir .repro-cache-smoke
	PYTHONPATH=src $(PY) -c "import sys; \
		from repro.telemetry import summarize_trace; \
		hits = [summarize_trace(f'TRACE_campaign_{run}.jsonl') \
			.counters.get('cache.hit', 0) for run in ('cold', 'warm')]; \
		print(f'cache.hit total: cold {hits[0]}, warm {hits[1]}'); \
		sys.exit(0 if hits[0] == 0 and hits[1] > 0 else 1)"
	PYTHONPATH=src $(PY) scripts/corpus_robustness.py
	rm -rf .bench-fresh-corpus && mkdir -p .bench-fresh-corpus
	PYTHONPATH=src $(PY) -m repro.corpus.bench \
		--out .bench-fresh-corpus/BENCH_corpus.json
	PYTHONPATH=src $(PY) scripts/bench_compare.py \
		--fresh-dir .bench-fresh-corpus --only corpus

# regenerate every paper artifact at default scale
experiments:
	$(PY) -m repro all

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/attack_demo.py
	$(PY) examples/trojan_analysis.py
	$(PY) examples/testability_study.py
	$(PY) examples/design_space.py
	$(PY) examples/tapeout_view.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks *.egg-info
