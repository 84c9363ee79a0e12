# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench benchjson benchsmoke benchbase benchcmp benchguard repro fuzz cover fmt vet

# Packages with guarded hot-path benchmarks: the root suite (MATCH,
# paths, construction), the binding-table operators, the CSR snapshot
# maintenance path, and the write-ahead log append path.
BENCH_PKGS := . ./internal/bindings ./internal/csr ./internal/obs ./internal/wal

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: runs the root-package and
# binding-table suites and writes BENCH_<date>.json (name, ns/op,
# B/op, allocs/op per line).
benchjson:
	go test -bench . -benchmem -run '^$$' $(BENCH_PKGS) | go run ./cmd/benchjson

# One-iteration smoke of the same suites as bench-smoke.json (CI's
# bench-json artifact), so the package list lives only in BENCH_PKGS.
benchsmoke:
	go test -bench . -benchtime 1x -benchmem -run '^$$' $(BENCH_PKGS) | go run ./cmd/benchjson -o bench-smoke.json

# Benchmark comparison workflow: `make benchbase` on the baseline
# commit writes bench.base.txt, then `make benchcmp` on the changed
# tree benchmarks again and compares (via benchstat when installed,
# plain side-by-side otherwise). BENCH narrows the benchmark regexp,
# e.g. BENCH=BenchmarkParallelMatch.
BENCH ?= .

benchbase:
	go test -bench='$(BENCH)' -benchmem -count=5 -run '^$$' $(BENCH_PKGS) | tee bench.base.txt

benchcmp:
	go test -bench='$(BENCH)' -benchmem -count=5 -run '^$$' $(BENCH_PKGS) | tee bench.head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.base.txt bench.head.txt; \
	else \
		echo '--- benchstat not installed; raw baseline vs head ---'; \
		grep '^Benchmark' bench.base.txt; echo '---'; grep '^Benchmark' bench.head.txt; \
	fi

# Regression guard over the committed baseline: allocs/op or B/op
# regressions beyond 20% on the guarded benchmarks fail, timing
# regressions warn (allocation counts and bytes are
# machine-independent, ns/op is not). A benchmark whose own baseline
# runs spread more than 20% in B/op gets a B/op warning instead.
# BENCH_GUARD is the one list of guarded benchmarks; CI runs this
# target and it is passed to cmd/benchguard as -guard.
#   - Joins, parallel match (with span instrumentation live, so it
#     also proves the observability budget) and columnar scans.
#   - RepeatedEval (/cache the plan-cache hit path, /nocache the
#     ablated fallback) and PreparedEval (parameterised statements).
#   - MutateThenRead and SnapshotDelta: incremental snapshot
#     maintenance must stay O(delta), not O(graph).
#   - ConcurrentRead: readers must keep sharing snapshots under the
#     engine's read/write lock split.
#   - WALAppend (every mutation pays one append) and WALGroupCommit
#     (the contended SyncAlways path with shared fsyncs).
#   - ComplexityScalingConstruct: the paper's polynomial-time claim
#     on an OPTIONAL fold (a cross product shows as a B/op jump), and
#     GuidedTour: the paper's guided-tour statements end to end.
BENCH_GUARD := BenchmarkJoin|BenchmarkParallelMatch|BenchmarkFilteredScan|BenchmarkRepeatedEval|BenchmarkPreparedEval|BenchmarkMutateThenRead|BenchmarkConcurrentRead|BenchmarkSnapshotDelta|BenchmarkWALAppend|BenchmarkWALGroupCommit|BenchmarkComplexityScalingConstruct|BenchmarkGuidedTour

# bench.base.txt was recorded at GOMAXPROCS=1 and allocs/op depends
# on the worker count (parallel chunking allocates per chunk), so the
# guard runs at -cpu 1 whatever the host's core count.
benchguard:
	go test -bench='$(BENCH_GUARD)' -benchmem -count=3 -cpu 1 -run '^$$' $(BENCH_PKGS) | tee bench.head.txt
	go run ./cmd/benchguard -base bench.base.txt -head bench.head.txt -guard '$(BENCH_GUARD)'

repro:
	go run ./cmd/gcore-repro
	go run ./cmd/gcore-repro -complexity

fuzz:
	go test -fuzz=FuzzParse -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzSnapshot -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzEval -fuzztime=60s -run '^$$' .

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

fmt:
	gofmt -l .

vet:
	go vet ./...
