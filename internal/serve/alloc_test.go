package serve

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// allocTuple is one VWAP insert on partition sym. Repeating a fixed set of
// them keeps the executor's key set fixed, so the steady state measures the
// serving pipeline rather than tree growth.
func allocTuple(sym, price float64) engine.Event {
	return engine.Insert(query.Tuple{"sym": sym, "price": price, "volume": 1})
}

// allocService is a one-shard VWAP service warmed up on a fixed 64-event
// batch: the partition and its index keys exist, the dictionary's routing
// scratch is grown and the batch-box free list is seeded. It returns the batch
// with it.
func allocService(t *testing.T) (*Service, []engine.Event) {
	t.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	batch := make([]engine.Event, 64)
	for i := range batch {
		batch[i] = allocTuple(1, float64(i%8+1))
	}
	for i := 0; i < 8; i++ {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	return svc, batch
}

// checkBatchAllocs fails t if one ApplyBatch of events allocates more than
// ceiling in the steady state.
func checkBatchAllocs(t *testing.T, svc *Service, events []engine.Event, ceiling float64) {
	t.Helper()
	if got := testing.AllocsPerRun(200, func() {
		if err := svc.ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("Service.ApplyBatch allocates %.1f per %d-event batch, ceiling %.0f", got, len(events), ceiling)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocGuardApply bounds the steady-state per-event cost of the serving
// pipeline on an engine plan — partition-key extraction, shard routing, the
// worker's apply and the snapshot refresh — through a one-event batch, the
// finest-grained way in. The ceiling is deliberately generous: the guard
// exists to catch a regression that starts allocating per event inside the
// ingest path (a lost scratch buffer, an escaping closure), not to pin an
// exact count, since refresh cost depends on how the worker's batching
// interleaves with the producer.
func TestAllocGuardApply(t *testing.T) {
	svc, batch := allocService(t)
	checkBatchAllocs(t, svc, batch[:1], 8)
}

// TestAllocGuardApplyBatch bounds the steady-state per-batch cost of the
// batched ingest path on an engine plan: the dictionary's routing, the
// pooled batch box, the worker's per-partition runs, the executor's
// ApplyRows and one snapshot refresh. The ceiling is per batch of
// 64 events — the point of batching is that this cost no longer scales with
// the event count, so a regression that allocates per event blows through it
// immediately.
func TestAllocGuardApplyBatch(t *testing.T) {
	svc, batch := allocService(t)
	checkBatchAllocs(t, svc, batch, 16)
}

// The shard-commit shape of the stack benchmark's wide-shallow workload: one
// shard owning commitParts partitions, fed commitBatch-event batches over
// uniformly random partitions, so one batch touches about 124 of them.
const (
	commitParts = 2048
	commitBatch = 128
)

// commitService builds a one-shard VWAP service holding parts
// partitions, each with price levels 1 and 2, with drain bound bound —
// commitBatch makes every ApplyBatch of a ring batch exactly one commit, 0
// is the default. It returns a ring of pre-built commitBatch-event batches
// over random partitions and levels; re-applying them grows no index, so
// the steady state measures routing, apply and publication, not tree
// growth.
func commitService(tb testing.TB, parts, ringLen, bound int) (*Service, [][]engine.Event) {
	tb.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1, BatchSize: bound})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	warm := make([]engine.Event, 0, 2*parts)
	for sym := 0; sym < parts; sym++ {
		warm = append(warm, allocTuple(float64(sym), 1), allocTuple(float64(sym), 2))
	}
	rng := rand.New(rand.NewSource(7))
	ring := make([][]engine.Event, ringLen)
	for i := range ring {
		ring[i] = make([]engine.Event, commitBatch)
		for j := range ring[i] {
			ring[i][j] = allocTuple(float64(rng.Intn(parts)), float64(1+rng.Intn(2)))
		}
	}
	if err := svc.ApplyBatch(warm); err != nil {
		tb.Fatal(err)
	}
	for _, batch := range ring {
		if err := svc.ApplyBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		tb.Fatal(err)
	}
	return svc, ring
}

// TestAllocGuardCommitBytes bounds the bytes one steady-state commit
// allocates on a 2 048-partition shard. Publication copies the value column
// only — eight pointer-free bytes per partition over the shared key table —
// so the ceiling is 8·P plus fixed slack for the snapshot header and the
// drain barrier. Cloning a 32-byte (key, value) row per partition, as a
// grouped-row snapshot does, is four times the column and fails it; so does
// any per-event allocation on the write path. Each commit is drained before
// the next batch is queued: a producer that runs ahead of the worker fills
// the queue with fresh batch boxes the pool has not had back yet, and would
// measure how far it ran ahead rather than the commit.
func TestAllocGuardCommitBytes(t *testing.T) {
	svc, ring := commitService(t, commitParts, 32, commitBatch)
	const commits, ceiling = 256, 8*commitParts + 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < commits; i++ {
		if err := svc.ApplyBatch(ring[i%len(ring)]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / commits; got > ceiling {
		t.Errorf("one %d-event commit on a %d-partition shard allocates %d B, ceiling %d B", commitBatch, commitParts, got, ceiling)
	}
}

// TestDrainReleasesEvents checks that applied events are not kept alive by
// the write path's reused buffers. A shard worker applies each partition's
// run straight from its batch box, so no partition buffers rows; the idle
// boxes on the free list hold rows of the schema's width — weights and values in one flat
// float64 array, never a tuple map (the map edge lays events out as rows
// before they are queued) — and their partition runs.
func TestDrainReleasesEvents(t *testing.T) {
	svc, ring := commitService(t, commitParts, 8, commitBatch)
	for _, batch := range ring {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	width := svc.plan.schema.Len()
	boxes := idleBoxes(svc)
	if len(boxes) == 0 {
		t.Fatal("the box free list is empty after a drained burst")
	}
	for _, b := range boxes {
		if b.rows.Width != width {
			t.Errorf("idle batch box holds rows of width %d, schema has %d columns", b.rows.Width, width)
		}
	}
}

// idleBoxes returns a copy of svc's batch-box free list.
func idleBoxes(svc *Service) []*batchBox {
	svc.boxMu.Lock()
	defer svc.boxMu.Unlock()
	return slices.Clone(svc.idle)
}

// TestCheckpointReleasesBoxes checks that a checkpoint leaves an idle
// service holding no batch boxes: a burst queued behind blocked workers puts
// several boxes per shard in flight, and the free list keeps them once they
// are applied, until Checkpoint empties it — whether the burst was drained
// first or was still queued when Checkpoint was called.
func TestCheckpointReleasesBoxes(t *testing.T) {
	const shards, burst = 2, 8
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	batch := make([]engine.Event, 64)
	for i := range batch {
		batch[i] = allocTuple(float64(i%16), float64(i%8+1))
	}
	// blockedBurst queues burst batches, each spanning every shard, while
	// every worker waits in a control request; the returned func lets the
	// workers go.
	blockedBurst := func() func() {
		started, release := make(chan struct{}), make(chan struct{})
		for i := 0; i < shards; i++ {
			go svc.control(i, func(*workerState) error {
				started <- struct{}{}
				<-release
				return nil
			})
			<-started
		}
		for k := 0; k < burst; k++ {
			if err := svc.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		return func() { close(release) }
	}

	blockedBurst()()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := len(idleBoxes(svc)); n < shards*burst {
		t.Fatalf("after a drained burst of %d boxes per shard the free list holds %d", burst, n)
	}
	if err := svc.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if n := len(idleBoxes(svc)); n != 0 {
		t.Fatalf("Checkpoint after a drained burst left %d boxes on the free list", n)
	}

	release := blockedBurst()
	done := make(chan error, 1)
	go func() { done <- svc.Checkpoint(t.TempDir()) }()
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(idleBoxes(svc)); n != 0 {
		t.Fatalf("Checkpoint behind a queued burst left %d boxes on the free list", n)
	}
}

// TestAllocGuardCheckpoint bounds what checkpointing a drained service
// allocates per partition, at two tree sizes 64 times apart: a shard's
// snapshot streams each partition's record through one reused buffer into
// its file, and a level tree encodes in place in that buffer, so the count
// and the bytes per partition do not grow with the tree. A per-tree write
// buffer, a copy of each partition's state, or a one-byte slice per tag
// fails it; so does anything else that allocates per level.
func TestAllocGuardCheckpoint(t *testing.T) {
	const parts, objCeiling, byteCeiling = 256, 8, 1024
	for _, levels := range []int{4, 256} {
		svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		batch := make([]engine.Event, 0, parts)
		for l := 0; l < levels; l++ {
			batch = batch[:0]
			for p := 0; p < parts; p++ {
				batch = append(batch, allocTuple(float64(p), float64(l+1)))
			}
			if err := svc.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		checkpoint := func() {
			if err := svc.Checkpoint(dir); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint()
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			checkpoint()
		}
		runtime.ReadMemStats(&after)
		objs := float64(after.Mallocs-before.Mallocs) / (runs * parts)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * parts)
		t.Logf("%d levels: %.1f objects and %.0f B per partition", levels, objs, bytes)
		if objs > objCeiling || bytes > byteCeiling {
			t.Errorf("checkpointing %d partitions of %d levels allocates %.1f objects and %.0f B per partition, ceilings %d and %d B",
				parts, levels, objs, bytes, objCeiling, byteCeiling)
		}
	}
}
