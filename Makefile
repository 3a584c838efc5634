.PHONY: all build test bench bench-cold bench-serve smoke pipe oracle oracle-smoke ooo profile serve soak check size clean

all: build

build:
	dune build

test: build
	dune runtest

# Evaluation smoke run on 2 pool workers: exercises the parallel path
# and the summary artifact end to end.
smoke: build
	IMPACT_JOBS=2 dune exec bench/main.exe -- summary

# Software-pipelining evaluation: per-loop II/MII table and pipelined-vs-
# list-scheduled kernel cycles across the suite (see EXPERIMENTS.md).
pipe: build
	IMPACT_JOBS=2 dune exec bench/main.exe -- pipe

# Exact-oracle certification of the pipeliner: every analyzable
# innermost loop across the matrix machines gets a certified-optimal II
# or an explicit bounded gap from lib/exact's branch-and-bound solver;
# refreshes BENCH_oracle.json, whose body is byte-identical at any -j
# (see DESIGN.md "Exact scheduling oracle"). CI diffs it against the
# committed baseline with scripts/check_bench_regression.py --oracle.
oracle: build
	IMPACT_JOBS=8 dune exec bench/main.exe -- oracle

# Budgeted smoke subset of the same certification for CI: the pipe-smoke
# kernels across the matrix, table only, no artifact.
oracle-smoke: build
	IMPACT_JOBS=2 dune exec bench/main.exe -- oracle-smoke

# Out-of-order machine-model evaluation: both cores across the full
# level x issue matrix at ROB 8/32/128, the Lev1-vs-Lev2 collapse
# table, and a refreshed BENCH_ooo.json (see DESIGN.md "Out-of-order
# backend").
ooo: build
	IMPACT_JOBS=2 dune exec bench/main.exe -- ooo

# Stall attribution + pass telemetry for one kernel (KERNEL=name to
# change; see DESIGN.md "Observability").
profile: build
	dune exec bin/impactc.exe -- profile $(or $(KERNEL),vecadd) --sched pipe

# Batch query service demo: three lines in (valid, malformed, unknown
# loop), three JSON records out, exit 0 (see README "impactc serve").
serve: build
	printf '{"loop": "dotprod", "level": "Lev4", "issue": 8}\nnot json\n{"loop": "nope"}\n' \
	  | dune exec bin/impactc.exe -- serve

# Serve load harness: drive one listener with concurrent pipelined
# clients, report client-side latency percentiles and throughput,
# cross-check them against the server's {"op": "metrics"} histograms
# and validate the JSONL access log; refreshes BENCH_serve.json and
# prints the delta against the committed baseline (see DESIGN.md
# "Event-driven serve tier"). SERVE_SECONDS=10 to change the load
# duration.
bench-serve: build
	git show HEAD:BENCH_serve.json > BENCH_serve.baseline.tmp 2>/dev/null || true
	python3 scripts/loadgen.py --seconds $(or $(SERVE_SECONDS),5) --clients 4 \
	  --baseline BENCH_serve.baseline.tmp \
	  --access-log access.jsonl --out BENCH_serve.json -- \
	  ./_build/default/bin/impactc.exe serve --listen 127.0.0.1:0 \
	  --cache-dir _cache --queue-depth 64
	rm -f BENCH_serve.baseline.tmp

# TCP soak: hammer `serve --listen` with concurrent pipelined clients
# under fault injection, then SIGTERM and assert a clean drain (exit 0,
# per-connection response order intact). SOAK_SECONDS=30 for the CI
# duration (see DESIGN.md "Network service").
soak: build
	IMPACT_FAULTS=slow_read:0.05,drop_conn:0.02,slow_cell:0.1 \
	  python3 scripts/soak.py --seconds $(or $(SOAK_SECONDS),8) --clients 6 -- \
	  ./_build/default/bin/impactc.exe serve --listen 127.0.0.1:0 --queue-depth 32

check: build test smoke

# Lines of .ml/.mli under lib/, bin/ and bench/: the code size ROADMAP
# tracks (the .f kernel sources are not counted).
size:
	@find lib bin bench -name '*.ml' -o -name '*.mli' | xargs cat | wc -l

bench: build
	dune exec bench/main.exe

# Cold perf run: single worker, no result cache, so the per-stage busy
# times in the refreshed BENCH_eval.json measure the compiler itself.
# CI diffs these against the committed baseline with
# scripts/check_bench_regression.py.
bench-cold: build
	dune exec bench/main.exe -- -j 1 --no-cache json

clean:
	dune clean
