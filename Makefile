# Convenience targets; everything is plain `go` underneath.

.PHONY: test test-race race catalog bench-core experiments examples fuzz fuzz-smoke lint benchmark benchmark-check benchmark-smoke serve-demo

# CI's test job: tier-1 (build, vet, every unit test), the stack benchmark's
# build and unit tests, the allocation guards re-run uncached (steady-state
# hot paths stay allocation-free: the RPAI tree's reads, churn and shift,
# the level tree, the engine event codec, serve's ApplyBatch on an
# engine plan; a shard commit allocates its value column and no more; the
# catalog's durable ApplyBatch allocates no more for a longer batch), and
# every rpaibench experiment at -quick scale, which exits 1 when one of the
# paper's shape claims (EXPERIMENTS.md) fails or two systems' results differ.
test: benchmark-check
	go build ./... && go vet ./... && go test ./...
	go test -run 'TestAllocGuard' -count 1 ./internal/rpai/ ./internal/engine/ ./internal/serve/ ./internal/catalog/
	go run ./cmd/rpaibench -exp all -quick

# The stack benchmark (BENCHMARK.json) is a module of its own under
# benchmark/, so nothing above compiles it. benchmark-check builds it against
# this checkout and runs its unit tests (-o /dev/null: a bare `go build` would
# drop the binary into benchmark/; -short skips the 1/100-scale smoke
# pass); benchmark-smoke (a CI job) runs that pass too: all four workloads
# against a real child rpaiserver, every answer checked by the oracle;
# benchmark runs it in full, timed — the one source of serving-stack numbers.
benchmark-check:
	cd benchmark && go build -o /dev/null ./... && go vet ./... && go test -short ./...

benchmark-smoke:
	cd benchmark && go test -count 1 ./...

benchmark:
	bash benchmark/run.sh

test-race:
	go test -race ./...

# CI's race job: every package under -race (-short downscales the
# delete-heavy soak traces; test-race is the full soak), the serving suites
# unabridged (catalog), and the batch-equivalence and subscription-delta fuzz
# smokes under -race at GOMAXPROCS=4.
race: catalog
	go test -race -short ./...
	GOMAXPROCS=4 go test -race -fuzz FuzzBatchEquivalence -fuzztime 10s $(MINIMIZE) -run '^$$' ./internal/engine/
	GOMAXPROCS=4 go test -race -fuzz FuzzSubscriptionDeltas -fuzztime 10s $(MINIMIZE) -run '^$$' ./internal/serve/

# The serving surface unabridged under -race (catalog lifecycle and sharing,
# the shared WAL's crash/recover/torn-tail matrices, the follower, wire server
# and client, serve's parallel-ingest differential and stats race), the
# loopback demo, and the daemon boot smoke on real processes (-register once
# and twice, -replica; -compact-every, SIGTERM drain, restart-and-recover).
catalog:
	go test -race -count 1 ./internal/catalog/ ./internal/wire/... ./internal/serve/
	go run ./examples/wiredemo
	go test -run 'TestDaemon|TestBoot' -count 1 -v ./cmd/rpaiserver/

# Core micro-benchmarks: the RPAI tree's Put/Add/GetSum/Delete, the level
# tree's insert/delete churn and weight-steered refresh reads at the stack
# benchmark's four tree shapes, the relation-state executor's per-event
# cost at the stack benchmark's deep-index and wide-shallow tree sizes, the
# publish layer's per-event cost and bytes on a wide-shallow-sized shard
# (2 048 partitions, 128-event commits) with 0 and 8 subscribers and with two probe lanes (a founder and
# one threshold variant) and with 8 stalled subscribers on 256- and
# 4 096-partition shards, and the catalog's record path (decode,
# admission, WAL append, fan-out) per event and byte on a 256-event record
# into 1 and 16 state sets, the catalog's registration path per Register or
# Unregister call (24 registrations into 16 sets on a durable catalog, then
# their removal), and the general algorithm (SQ1, SQ2, NQ1, NQ2) and the PAI
# executor (EQ1) per event, apply plus Result, on a 64-level order-book
# trace.
bench-core:
	go test -run '^$$' -bench 'BenchmarkTree(Put|Add|GetSum|Delete)' -benchmem \
		-benchtime 200ms -count 3 ./internal/rpai/
	go test -run '^$$' -bench 'BenchmarkLevelTree(Churn|Refresh)' -benchmem \
		-benchtime 1000000x -count 3 ./internal/rpai/
	go test -run '^$$' -bench BenchmarkRelStateApply -benchmem \
		-benchtime 400000x -count 3 ./internal/engine/
	go test -run '^$$' -bench BenchmarkShardCommit -benchmem \
		-benchtime 2000x -count 3 ./internal/serve/
	go test -run '^$$' -bench BenchmarkIngestRecord -benchmem \
		-benchtime 400x -count 3 ./internal/catalog/
	go test -run '^$$' -bench BenchmarkCatalogRegister -benchmem \
		-benchtime 20x -count 3 ./internal/catalog/
	go test -run '^$$' -bench BenchmarkGeneralApply -benchmem \
		-benchtime 3x -count 3 ./internal/engine/

experiments:
	go run ./cmd/rpaibench -exp all

examples:
	go run ./examples/quickstart
	go run ./examples/vwap
	go run ./examples/tpch_q17
	go run ./examples/orderbook
	go run ./examples/queryengine
	go run ./examples/checkpoint
	go run ./examples/wiredemo

# Every Fuzz* target in the module, as package:target. fuzz and fuzz-smoke
# (a CI job) run the same list and differ only in time per target.
FUZZ_TARGETS := \
	internal/rpai:FuzzTreeOps \
	internal/rpai:FuzzLevelTree \
	internal/rpaibtree:FuzzBTreeVsBinary \
	internal/queries:FuzzFinanceStrategies \
	internal/engine:FuzzEngineDifferential \
	internal/engine:FuzzBatchEquivalence \
	internal/engine:FuzzSnapshotRoundTrip \
	internal/checkpoint:FuzzWALRecords \
	internal/sqlparse:FuzzParse \
	internal/query:FuzzBindExpr \
	internal/wire:FuzzWireFrames \
	internal/serve:FuzzSubscriptionDeltas \
	internal/catalog:FuzzCatalogDifferential

# Go minimizes every input that finds new coverage for up to
# -fuzzminimizetime (default 60s), and the exec counter stands still while it
# does. The targets that start goroutines (FuzzSubscriptionDeltas,
# FuzzCatalogDifferential) take milliseconds per exec and find
# scheduling-dependent coverage often, so their minimizations ran to the
# limit and one could stall a run for most of its fuzz time; MINIMIZE bounds
# each to a few seconds.
MINIMIZE := -fuzzminimizetime 5s

# $(call fuzz-each,TIME): one recipe line per target.
define fuzz-each
$(foreach t,$(FUZZ_TARGETS),go test -fuzz '^$(lastword $(subst :, ,$t))$$' -fuzztime $(1) $(MINIMIZE) -run '^$$' ./$(firstword $(subst :, ,$t))/
)
endef

fuzz:
	$(call fuzz-each,30s)

fuzz-smoke:
	$(call fuzz-each,10s)

# Static analysis beyond `go vet`: formatting drift, the serving build
# linking an ablation index package, the paper-side treemap or the
# paper-evaluation harness, the paper-evaluation harness linking the serving
# stack (it times executors; serving numbers come from `make benchmark`),
# serve's tests reaching past engine plans to the
# hand-written executors and their workloads (each printed if it does), a
# Fuzz* target in the module missing from FUZZ_TARGETS (named if one is),
# staticcheck, and the vulnerability scan. CI installs the two tools in its
# lint job; locally they are skipped with a note when absent (this repo never
# installs tools for you).
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	! go list -deps ./cmd/rpaiserver | grep -E '^rpai/internal/(aggindex|rpaibtree|fenwick|queries|stream|tpch|bench|treemap)$$'
	! go list -deps ./cmd/rpaibench | grep -E '^rpai/internal/(serve|catalog|wire)$$'
	! go list -test -deps ./internal/serve | grep -E '^rpai/internal/(queries|stream|tpch|aggindex)$$'
	! grep -rEo --include='*_test.go' --exclude-dir=benchmark '^func Fuzz[A-Za-z0-9_]+' . | sed -E 's|^\./||; s|/[^/]*_test\.go:func |:|' | grep -vxF $(foreach t,$(FUZZ_TARGETS),-e '$t')
	go vet ./...
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

# Boot a durable rpaiserver on :7411 with the VWAP decile query, partitioned
# by symbol, and run the in-process demo against a loopback server.
serve-demo:
	go run ./examples/wiredemo
	go run ./cmd/rpaiserver -addr 127.0.0.1:7411 -partition sym -data /tmp/rpai-serve-demo \
		-register "SELECT Sum(b.price * b.volume) FROM bids b WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1) < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
