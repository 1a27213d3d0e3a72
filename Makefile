# Convenience targets; everything is plain `go` underneath.

.PHONY: test test-race bench bench-core batch experiments examples fuzz fuzz-smoke race matrix matrix-smoke catalog bench-compare serve-demo lint benchmark benchmark-check

test: benchmark-check
	go build ./... && go vet ./... && go test ./...

# The stack benchmark (BENCHMARK.json) is a module of its own under
# benchmark/, so nothing above compiles it. benchmark-check builds it against
# this checkout and runs its unit tests (-o /dev/null: a bare `go build` would
# drop the binary into benchmark/; -short skips the 1/100-scale smoke
# pass); benchmark runs it: all four workloads, timed.
benchmark-check:
	cd benchmark && go build -o /dev/null ./... && go vet ./... && go test -short ./...

benchmark:
	bash benchmark/run.sh

test-race:
	go test -race ./...

race:
	go test -race ./internal/...

bench:
	go test -bench=. -benchmem ./...

# Core micro-benchmarks: the tree operations, pointer vs arena side by side
# (satellite of the arena experiment; `rpaibench -exp arena` is the
# reportable version), and the range-shift executor's per-event cost at the
# stack benchmark's deep-index and wide-shallow tree sizes.
bench-core:
	go test -run '^$$' -bench 'BenchmarkTree(Put|Add|GetSum|Delete)' -benchmem \
		-benchtime 200ms -count 3 ./internal/rpai/
	go test -run '^$$' -bench BenchmarkRelStateApply -benchmem \
		-benchtime 400000x -count 3 ./internal/engine/

experiments:
	go run ./cmd/rpaibench -exp all

# Batch-native ingest: the ApplyBatch sweep across strategies and batch
# sizes, the equivalence fuzz target, and the alloc guards (CI's batch job).
batch:
	go test -race -run 'ApplyBatch|Batch' -fuzz FuzzBatchEquivalence -fuzztime 10s ./internal/engine/
	go test -race -run 'ApplyBatch|BatchSize|AllocGuard' ./internal/serve/
	go run ./cmd/rpaibench -exp batch -quick -batch-out ""

examples:
	go run ./examples/quickstart
	go run ./examples/vwap
	go run ./examples/tpch_q17
	go run ./examples/orderbook
	go run ./examples/queryengine
	go run ./examples/minmax
	go run ./examples/checkpoint
	go run ./examples/wiredemo

fuzz:
	go test -fuzz FuzzTreeOps -fuzztime 30s ./internal/rpai/
	go test -fuzz FuzzPairOps -fuzztime 30s ./internal/rpai/
	go test -fuzz FuzzEngineDifferential -fuzztime 30s ./internal/engine/
	go test -fuzz FuzzBatchEquivalence -fuzztime 30s ./internal/engine/
	go test -fuzz FuzzSnapshotRoundTrip -fuzztime 30s ./internal/engine/
	go test -fuzz FuzzWALRecords -fuzztime 30s ./internal/checkpoint/
	go test -fuzz FuzzBTreeVsBinary -fuzztime 30s ./internal/rpaibtree/
	go test -fuzz FuzzParse -fuzztime 30s ./internal/sqlparse/
	go test -fuzz FuzzWireFrames -fuzztime 30s ./internal/wire/
	go test -fuzz FuzzSubscriptionDeltas -fuzztime 30s ./internal/serve/

# The 10-second smoke CI runs on every push.
fuzz-smoke:
	go test -fuzz FuzzTreeOps -fuzztime 10s -run '^$$' ./internal/rpai/
	go test -fuzz FuzzPairOps -fuzztime 10s -run '^$$' ./internal/rpai/
	go test -fuzz FuzzEngineDifferential -fuzztime 10s -run '^$$' ./internal/engine/
	go test -fuzz FuzzBatchEquivalence -fuzztime 10s -run '^$$' ./internal/engine/
	go test -fuzz FuzzSnapshotRoundTrip -fuzztime 10s -run '^$$' ./internal/engine/
	go test -fuzz FuzzWALRecords -fuzztime 10s -run '^$$' ./internal/checkpoint/
	go test -fuzz FuzzWireFrames -fuzztime 10s -run '^$$' ./internal/wire/
	go test -fuzz FuzzSubscriptionDeltas -fuzztime 10s -run '^$$' ./internal/serve/

# The multicore scaling matrix at full scale: serve / wire / fanout modes
# swept over GOMAXPROCS x shards x batch size x connections, written to
# BENCH_matrix.json with the host baseline in the header.
matrix:
	go run ./cmd/rpaibench -exp matrix

# CI's matrix job: parallel differential + stats-race tests under -race, the
# GOMAXPROCS=4 fuzz smokes, then a quick matrix run gated against the
# committed baseline at the default 15% threshold.
matrix-smoke:
	go test -race -run 'ParallelIngest|StatsRace|MaxProcs|Matrix|Compare' \
		./internal/serve/ ./internal/bench/
	GOMAXPROCS=4 go test -race -fuzz FuzzBatchEquivalence -fuzztime 10s -run '^$$' ./internal/engine/
	GOMAXPROCS=4 go test -race -fuzz FuzzSubscriptionDeltas -fuzztime 10s -run '^$$' ./internal/serve/
	go run ./cmd/rpaibench -exp matrix -quick -matrix-out /tmp/rpai-matrix-new.json
	go run ./cmd/rpaibench -compare BENCH_matrix_baseline.json /tmp/rpai-matrix-new.json

# CI's catalog job: the serving surface unabridged under -race (catalog
# lifecycle and sharing, the shared WAL's crash/recover/torn-tail matrices,
# the follower, wire server and client), the catalog differential fuzz smoke,
# a quick multi run (all six arms) gated against the committed baseline, the
# loopback demo, and the daemon boot smoke on real processes (-query,
# -register twice, -replica; -compact-every, SIGTERM drain, restart-and-recover).
catalog:
	go test -race -count 1 ./internal/catalog/ ./internal/wire/...
	go test -fuzz FuzzCatalogDifferential -fuzztime 10s -run '^$$' ./internal/catalog/
	go run ./cmd/rpaibench -exp multi -quick -multi-out /tmp/rpai-multi-new.json
	go run ./cmd/rpaibench -compare BENCH_multi_baseline.json /tmp/rpai-multi-new.json
	go run ./examples/wiredemo
	go test -run 'TestDaemon|TestBoot' -count 1 -v ./cmd/rpaiserver/

# Static analysis beyond `go vet`: formatting drift, staticcheck, and the
# vulnerability scan. CI installs the two tools in its lint job; locally they
# are skipped with a note when absent (this repo never installs tools for
# you).
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# Compare two benchmark reports: make bench-compare OLD=a.json NEW=b.json
bench-compare:
	go run ./cmd/rpaibench -compare $(OLD) $(NEW)

# Boot a durable rpaiserver on :7411 with the VWAP decile query, partitioned
# by symbol, and run the in-process demo against a loopback server.
serve-demo:
	go run ./examples/wiredemo
	go run ./cmd/rpaiserver -addr 127.0.0.1:7411 -partition sym -data /tmp/rpai-serve-demo \
		-query "SELECT Sum(b.price * b.volume) FROM bids b WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1) < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
