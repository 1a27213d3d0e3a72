package serve

import (
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
