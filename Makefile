# Convenience targets for the OraP reproduction

PY ?= python

.PHONY: install dev lint test verify-fast verify-robust bench bench-sim bench-sim-smoke bench-telemetry bench-supervisor bench-service bench-corpus bench-gate trace-smoke cache-smoke chaos-smoke serve-smoke corpus-smoke experiments examples clean

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
# committed BENCH_runtime.json self-check) against the repo baselines;
# >25% slowdown on a within-run ratio, a missing metric, or an
# engine/scalar mismatch fails the build (scripts/bench_compare.py)
bench-gate:
	rm -rf .bench-fresh && mkdir -p .bench-fresh
	PYTHONPATH=src $(PY) -m repro bench --out .bench-fresh/BENCH_sim.json
	PYTHONPATH=src $(PY) -c "from repro.telemetry import run_overhead_cli; \
		raise SystemExit(run_overhead_cli(out='.bench-fresh/BENCH_telemetry.json'))"
	PYTHONPATH=src $(PY) scripts/bench_compare.py --fresh-dir .bench-fresh

# warm-cache smoke: run the same tiny campaign twice against a shared
# result cache; the second (warm) run must serve rows from the cache —
# a schema-valid trace with a nonzero cache.hit total and a store that
# passes `repro cache verify` — and print byte-identical tables.  The
# cache dir is deliberately NOT wiped: CI restores .repro-cache-smoke
# across runs (actions/cache), so even the "cold" run re-executes
# incrementally; stale entries self-invalidate via CACHE_VERSION salts.
cache-smoke:
	rm -f TRACE_cache_cold.jsonl TRACE_cache_warm.jsonl
	PYTHONPATH=src $(PY) -m repro table1 --scale 0.004 \
		--circuits s38417,b20 --patterns 256 --jobs 4 \
		--cache --cache-dir .repro-cache-smoke \
		--trace TRACE_cache_cold.jsonl > TABLE_cache_cold.txt
	PYTHONPATH=src $(PY) -m repro table1 --scale 0.004 \
		--circuits s38417,b20 --patterns 256 --jobs 4 \
		--cache --cache-dir .repro-cache-smoke \
		--trace TRACE_cache_warm.jsonl > TABLE_cache_warm.txt
	cmp TABLE_cache_cold.txt TABLE_cache_warm.txt
	PYTHONPATH=src $(PY) -m repro trace validate TRACE_cache_warm.jsonl
	PYTHONPATH=src $(PY) -m repro trace report TRACE_cache_warm.jsonl
	PYTHONPATH=src $(PY) -m repro cache verify --cache-dir .repro-cache-smoke
	PYTHONPATH=src $(PY) -c "import sys; \
		from repro.telemetry import summarize_trace; \
		hits = summarize_trace('TRACE_cache_warm.jsonl').counters.get('cache.hit', 0); \
		print(f'warm-run cache.hit total: {hits}'); \
		sys.exit(0 if hits > 0 else 1)"

# chaos harness: a --jobs 4 campaign with injected worker kills, a
# hung worker (dead heartbeat), a poison row (killed on every attempt)
# and a disk-full fault on the result cache must COMPLETE with tables
# byte-identical to an uninjected serial run (quarantined rows excluded
# and reported), then survive a torn checkpoint on --resume; nonzero
# supervisor.*/cache.degraded/checkpoint.corrupt counters are asserted
# from the merged trace (repro chaos run, src/repro/experiments/chaos.py)
chaos-smoke:
	PYTHONPATH=src $(PY) -m repro chaos run --jobs 4

# supervised-vs-bare worker pool overhead on an uninjected parallel
# campaign; refreshes the `supervisor` block of BENCH_runtime.json
# (gated <3% by scripts/bench_compare.py)
bench-supervisor:
	PYTHONPATH=src $(PY) -m repro chaos bench

# job-service overhead vs direct run_rows (interleaved rounds, fixed
# seed; see src/repro/service/bench.py); refreshes BENCH_service.json
bench-service:
	PYTHONPATH=src $(PY) -m repro.service.bench --out BENCH_service.json

# job-service end-to-end smoke (scripts/serve_smoke.py): boot a real
# daemon, submit a small table1 campaign twice — the second submit must
# be a cache-admission hit (born done via content-key dedup, nonzero
# cache.hit in the trace) — then SIGTERM-drain a job mid-run and prove
# a restarted daemon resumes it to a result byte-identical to a direct
# in-process run; every journal line must validate against the v1 event
# schema.  A fresh BENCH_service.json is then generated and gated
# against its embedded <3% service-overhead bound.
serve-smoke:
	rm -rf .repro-serve-smoke
	PYTHONPATH=src $(PY) scripts/serve_smoke.py --state-dir .repro-serve-smoke
	rm -rf .bench-fresh-service && mkdir -p .bench-fresh-service
	PYTHONPATH=src $(PY) -m repro.service.bench \
		--out .bench-fresh-service/BENCH_service.json
	PYTHONPATH=src $(PY) scripts/bench_compare.py \
		--fresh-dir .bench-fresh-service --only service

# front-end parse throughput + round-trip/recovery invariants;
# refreshes BENCH_corpus.json (gated by scripts/bench_compare.py
# --only corpus against its embedded lines/s floor)
bench-corpus:
	PYTHONPATH=src $(PY) -m repro.corpus.bench --out BENCH_corpus.json

# real-corpus ingestion smoke, fully offline (mirrors the corpus-smoke
# CI job): materialize the vendored ISCAS/ITC families into a scratch
# store, verify every checksum, run Table I on a genuine family twice
# (second run --resume must be byte-identical), prove every malformed
# netlist in tests/data/corpus_bad/ yields structured diagnostics, then
# regenerate BENCH_corpus.json into .bench-fresh-corpus/ and gate it.
# The store dir is NOT wiped: CI restores .repro-corpus-smoke keyed on
# the manifest checksum, and stale layouts self-wipe via the VERSION
# stamp.
corpus-smoke:
	rm -rf .ckpt-corpus-smoke
	REPRO_CORPUS_OFFLINE=1 PYTHONPATH=src $(PY) -m repro corpus fetch \
		--offline --corpus-dir .repro-corpus-smoke
	REPRO_CORPUS_OFFLINE=1 PYTHONPATH=src $(PY) -m repro corpus verify \
		--corpus-dir .repro-corpus-smoke
	REPRO_CORPUS_OFFLINE=1 PYTHONPATH=src $(PY) -m repro corpus list \
		--corpus-dir .repro-corpus-smoke
	REPRO_CORPUS_OFFLINE=1 REPRO_CORPUS_DIR=.repro-corpus-smoke \
		PYTHONPATH=src $(PY) -m repro table1 --corpus iscas85-mini \
		--jobs 2 --patterns 256 --checkpoint-dir .ckpt-corpus-smoke \
		> TABLE_corpus_a.txt
	REPRO_CORPUS_OFFLINE=1 REPRO_CORPUS_DIR=.repro-corpus-smoke \
		PYTHONPATH=src $(PY) -m repro table1 --corpus iscas85-mini \
		--jobs 2 --patterns 256 --checkpoint-dir .ckpt-corpus-smoke \
		--resume > TABLE_corpus_b.txt
	cmp TABLE_corpus_a.txt TABLE_corpus_b.txt
	PYTHONPATH=src $(PY) scripts/corpus_robustness.py
	rm -rf .bench-fresh-corpus && mkdir -p .bench-fresh-corpus
	PYTHONPATH=src $(PY) -m repro.corpus.bench \
		--out .bench-fresh-corpus/BENCH_corpus.json
	PYTHONPATH=src $(PY) scripts/bench_compare.py \
		--fresh-dir .bench-fresh-corpus --only corpus

# end-to-end trace fan-in: a tiny 4-way parallel campaign streamed to
# one JSONL file, then every record schema-validated (an unknown span
# name fails the build) and summarized
trace-smoke:
	rm -f TRACE_smoke.jsonl
	PYTHONPATH=src $(PY) -m repro table1 --scale 0.004 \
		--circuits s38417,b20 --patterns 256 --jobs 4 \
		--trace TRACE_smoke.jsonl
	PYTHONPATH=src $(PY) -m repro trace validate TRACE_smoke.jsonl
	PYTHONPATH=src $(PY) -m repro trace report TRACE_smoke.jsonl

# regenerate every paper artifact at default scale
experiments:
	$(PY) -m repro all

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/attack_demo.py
	$(PY) examples/trojan_analysis.py
	$(PY) examples/testability_study.py
	$(PY) examples/design_space.py
	$(PY) examples/oracle_less_attacks.py
	$(PY) examples/tapeout_view.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks *.egg-info
