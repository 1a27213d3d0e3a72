package serve

import (
	"fmt"
	"math/rand"
	"runtime"
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
// batch: the partition and its index keys exist, the worker's pend buffer is
// grown and the batch-box pool is seeded. It returns the batch with it.
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
// batched ingest path on an engine plan: the pooled batch box, the
// single-shard fast path, the worker's per-partition buffering, the
// executor's ApplyBatch and one snapshot refresh. The ceiling is per batch of
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

// commitService builds a one-shard VWAP service holding commitParts
// partitions, each with price levels 1 and 2, and BatchSize commitBatch so
// every ApplyBatch of a ring batch is exactly one commit. It returns a ring
// of pre-built batches over random partitions and levels; re-applying them
// grows no index, so the steady state measures routing, apply and
// publication, not tree growth.
func commitService(tb testing.TB, ringLen int) (*Service, [][]engine.Event) {
	tb.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1, BatchSize: commitBatch})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	warm := make([]engine.Event, 0, 2*commitParts)
	for sym := 0; sym < commitParts; sym++ {
		warm = append(warm, allocTuple(float64(sym), 1), allocTuple(float64(sym), 2))
	}
	rng := rand.New(rand.NewSource(7))
	ring := make([][]engine.Event, ringLen)
	for i := range ring {
		ring[i] = make([]engine.Event, commitBatch)
		for j := range ring[i] {
			ring[i][j] = allocTuple(float64(rng.Intn(commitParts)), float64(1+rng.Intn(2)))
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
// any per-event allocation on the write path.
func TestAllocGuardCommitBytes(t *testing.T) {
	svc, ring := commitService(t, 32)
	const commits, ceiling = 256, 8*commitParts + 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < commits; i++ {
		if err := svc.ApplyBatch(ring[i%len(ring)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / commits; got > ceiling {
		t.Errorf("one %d-event commit on a %d-partition shard allocates %d B, ceiling %d B", commitBatch, commitParts, got, ceiling)
	}
}

// TestDrainReleasesEvents checks that applied events are not kept alive by
// the write path's reused buffers: after Drain no partition's pending buffer
// and no pooled batch box still references a tuple, anywhere in its
// capacity.
func TestDrainReleasesEvents(t *testing.T) {
	svc, ring := commitService(t, 8)
	for _, batch := range ring {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	held := func(events []engine.Event) int {
		n := 0
		for _, e := range events[:cap(events)] {
			if e.Tuple != nil {
				n++
			}
		}
		return n
	}
	if err := svc.control(0, func(ws *workerState) error {
		for _, p := range ws.plist {
			if n := held(p.pend); n > 0 {
				return fmt.Errorf("partition %v: pending buffer still references %d tuples", p.vals, n)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var boxes []*batchBox
	for {
		b, ok := svc.batchPool.Get().(*batchBox)
		if !ok {
			break
		}
		boxes = append(boxes, b)
		if n := held(b.events); n > 0 {
			t.Errorf("pooled batch box still references %d tuples", n)
		}
	}
	if len(boxes) == 0 {
		t.Log("batch pool was empty (collected); only partitions checked")
	}
	for _, b := range boxes {
		svc.batchPool.Put(b)
	}
}
