# Convenience targets for the LaPerm reproduction.

PYTHON ?= python3
SCALE ?= small
JOBS ?= 1

.PHONY: install lint test test-fast bench bench-tiny bench-json bench-refresh bench-quick perf-smoke serve-smoke figures experiments grid-fast trace-demo tune-fast validate clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

# ruff config lives in pyproject.toml; skips gracefully where ruff is absent
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples scripts; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	REPRO_SCALE=$(SCALE) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-tiny:
	REPRO_SCALE=tiny $(PYTHON) -m pytest benchmarks/ --benchmark-only

# engine throughput per scheduler -> BENCH_simulator.json (docs/simulator.md)
bench-json:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simulator.py -o BENCH_simulator.json

# refresh the committed perf baseline after intentional perf work: measure
# on a quiet machine, then overwrite BENCH_simulator.json (the printed
# fresh-vs-old comparison goes in the PR; policy in docs/simulator.md)
bench-refresh:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simulator.py -o .bench_smoke.json \
		--baseline BENCH_simulator.json
	$(PYTHON) scripts/check_bench_regression.py .bench_smoke.json \
		--baseline BENCH_simulator.json --update-baseline

# the repo benchmark at tiny scale with its output checks (golden replay,
# cold/warm and service result equality): exits non-zero on any mismatch;
# its timings are not meaningful (benchmarks/suite/README.md)
bench-quick:
	PYTHONPATH=src $(PYTHON) -m benchmarks.suite.run --quick

# CI perf gate: measure fresh throughput and fail if adaptive-bind (on
# bfs-citation tiny/dtbl, on sssp-cage15 small/cdp, whose KMU backlog and
# DRAM queue the tiny row never reaches, and on the cold path of
# clr-graph500 small/dtbl: build, trace store and first run) drops >25%
# below the committed BENCH_simulator.json baseline (docs/simulator.md)
perf-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simulator.py -o .bench_smoke.json \
		--baseline BENCH_simulator.json
	$(PYTHON) scripts/check_bench_regression.py .bench_smoke.json \
		--baseline BENCH_simulator.json --max-regression 0.25 \
		--schedulers adaptive-bind adaptive-bind@sssp-cage15/small/cdp cold:adaptive-bind@clr-graph500/small/dtbl

# end-to-end smoke of the job service: spawns `repro serve` on a scratch
# cache, drives it with concurrent clients, checks the zero-work warm
# path, /metrics surface and SIGTERM drain (docs/service.md)
serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/service_load_test.py --clients 4 --jobs 2

figures: bench

experiments:
	$(PYTHON) scripts/make_experiments_report.py $(SCALE) --jobs $(JOBS)

# smoke test of the worker pool: a tiny 2-benchmark grid over 4 workers on a
# cold scratch cache (so workers attach its workload cache) must write the
# same JSON, byte for byte, as a serial uncached run
GRID_FAST = --scale tiny --benchmarks amr join-gaussian --models dtbl
grid-fast:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	PYTHONPATH=src $(PYTHON) -m repro.cli grid $(GRID_FAST) --jobs 4 \
		--cache-dir "$$tmp/cache" -o "$$tmp/pool.json" && \
	PYTHONPATH=src $(PYTHON) -m repro.cli grid $(GRID_FAST) --jobs 1 --no-cache \
		-o "$$tmp/serial.json" && \
	cmp "$$tmp/pool.json" "$$tmp/serial.json"

# smoke test of the policy autotuner: a tiny-budget search on one
# workload, uncached so it always exercises the full pipeline (docs/search.md)
tune-fast:
	PYTHONPATH=src $(PYTHON) -m repro.cli tune amr --scale tiny --budget 12 \
		--jobs 2 --no-cache

# export a Chrome/Perfetto trace of bfs-citation (tiny) and re-check it
# against the trace-event schema (docs/telemetry.md)
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli trace bfs-citation --scale tiny -o trace-demo.json
	PYTHONPATH=src $(PYTHON) -c "import json; from repro.telemetry import assert_valid_trace; \
		assert_valid_trace(json.load(open('trace-demo.json'))); print('trace-demo.json: schema ok')"

goldens:
	$(PYTHON) scripts/regenerate_goldens.py

validate:
	$(PYTHON) -m repro.cli validate --scale $(SCALE)

clean:
	rm -rf .pytest_cache src/repro.egg-info trace-demo.json .bench_smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +
