PYTHON ?= python
export PYTHONPATH := src

.PHONY: test smoke bench bench-smoke perfbench-smoke dse fuzz \
	fuzz-smoke serve loadtest loadtest-smoke lint clean

test:
	$(PYTHON) -m pytest -x -q

# Fast end-to-end pass: every registered experiment with smoke
# parameters, serial vs parallel, writing results/runtime_smoke.json —
# then the full parallel run against the cache.
smoke:
	$(PYTHON) -m repro smoke
	$(PYTHON) -m repro all --json --jobs 4 > /dev/null

# Wall-clock perf harness (docs/performance.md): times every registered
# experiment at smoke AND full parameters and rewrites the committed
# BENCH_sim.json baseline.
bench:
	$(PYTHON) -m repro bench --repeats 3

# CI's perf gate: smoke parameters only, compared against the committed
# baseline; exits 1 on a >25% wall-clock regression or on fig8 missing
# a native queue-loop replay, and 2 when the baseline is missing,
# unreadable or of another schema.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --repeats 3 \
		--cost-model xeon-paper \
		--baseline BENCH_sim.json --out BENCH_smoke.json --check

# The external benchmark (perfbench/, BENCHMARK.json) against this tree:
# its own tests, then a 1 s run of each workload, untraced and traced.
# Each run's last stdout line must be a correct, failure-free result
# whose metric names are exactly BENCHMARK.json's end_to_end names (all
# measured) or, traced, its per_layer names.  Reads perfbench/ and
# BENCHMARK.json; changes neither.
define PERFBENCH_CHECK
import json, sys
traced = sys.argv[1] == "1"
doc = json.loads(sys.stdin.read().splitlines()[-1])
with open("BENCHMARK.json") as handle:
    spec = json.load(handle)
want = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
metrics = doc["metrics"]
assert doc["correct"] is True and doc["failed"] == 0, doc
assert set(metrics) == want, sorted(set(metrics) ^ want)
assert traced or all(m["value"] is not None for m in metrics.values())
print(f"ok: {len(metrics)} metrics, {doc['attempted']} ops")
endef
export PERFBENCH_CHECK

perfbench-smoke:
	python3 -m pytest -q perfbench/tests
	@for workload in paper-cold serve-mixed; do \
		for trace in 0 1; do \
			echo "perfbench: $$workload --trace $$trace"; \
			python3 perfbench/run.py --workload $$workload --seed 1 \
				--seconds 1 --trace $$trace \
				| python3 -c "$$PERFBENCH_CHECK" $$trace || exit 1; \
		done; \
	done

# Design-space sweep over the registered cost models (docs/
# cost-models.md): records each model's three modes once, re-prices
# the recordings across the parameter grid, and rewrites the committed
# results/dse_frontier.json crossover-frontier artifact.
dse:
	$(PYTHON) -m repro dse

# Differential fuzzing (docs/fuzzing.md): seed-deterministic guest
# programs run across every execution mode with the oracle suite armed.
# `fuzz` is the developer campaign; `fuzz-smoke` is CI's gate — a
# 25-run clean campaign, a bug-calibration campaign that must find and
# shrink a violation, and a replay of every committed counterexample.
fuzz:
	$(PYTHON) -m repro fuzz --seed 2019 --jobs 4

fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 2019 --runs 25 --jobs 4
	$(PYTHON) -m repro fuzz --seed 2019 --runs 5 --ops 12 \
		--bug drop-redirect --expect-violation > /dev/null
	$(PYTHON) -m repro fuzz --corpus tests/fuzz/corpus

# The long-lived experiment service (docs/serving.md): HTTP/JSON API
# with admission control, request coalescing over the result cache,
# and a supervised worker pool.  Ctrl-C to stop.
serve:
	$(PYTHON) -m repro serve --jobs 4

# Deterministic serve-tier load test: boots a throwaway service on an
# ephemeral port, drives it with a seeded request schedule, asserts
# the serving invariants in-process, and rewrites the committed
# BENCH_serve.json baseline.  `loadtest-smoke` is CI's gate — the same
# seeded campaign compared against the committed baseline (exact on
# the deterministic counters, noise-floored on wall clock), plus a
# worker-kill storm that must still complete every request.
loadtest:
	$(PYTHON) -m repro loadtest --seed 2019 --requests 60 --jobs 2 \
		--out BENCH_serve.json

loadtest-smoke:
	$(PYTHON) -m repro loadtest --seed 2019 --requests 60 --jobs 2 \
		--baseline BENCH_serve.json --check
	$(PYTHON) -m repro loadtest --seed 2019 --requests 24 --jobs 2 \
		--storm

# Three gates, strictest first.  svtlint ships with the repo and always
# runs; ruff and mypy are optional in the offline evaluation image and
# are skipped quietly when not installed.  Any finding from any
# installed gate exits nonzero so CI can rely on `make lint`.
lint:
	$(PYTHON) -m repro lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping ruff"; \
	fi
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping mypy"; \
	fi

clean:
	rm -rf results/cache .pytest_cache .svtlint_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
