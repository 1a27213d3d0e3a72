package catalog

import (
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestAllocGuardBatchRecord holds a warmed durable catalog's ApplyBatch to
// allocations that do not grow with the batch: the WAL record is encoded
// into a buffer the catalog keeps, the distinct-set list is kept rather than
// rebuilt per batch, and serve's pooled boxes and per-partition buffers are
// already grown. A record encoded into a fresh buffer regrows it on every
// batch, logarithmically in the batch's byte size, and fails the guard.
func TestAllocGuardBatchRecord(t *testing.T) {
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	id, _, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed key set (8 partitions x 4 price levels), so re-applying a batch
	// grows no index.
	batch := func(n int) []engine.Event {
		out := make([]engine.Event, n)
		for i := range out {
			out[i] = engine.Insert(query.Tuple{"sym": float64(i % 8), "price": float64(i%4 + 1), "volume": 1})
		}
		return out
	}
	small, big := batch(32), batch(512)
	run := func(events []engine.Event) func() {
		return func() {
			if err := cat.ApplyBatch(events); err != nil {
				t.Fatal(err)
			}
			if err := cat.Drain(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		run(big)()
		run(small)()
	}
	s := testing.AllocsPerRun(100, run(small))
	b := testing.AllocsPerRun(100, run(big))
	// One allocation of slack: whether the drain barrier shares the batch's
	// commit (one snapshot header fewer) depends on scheduling, and a short
	// batch shares it more often.
	if b > s+1 {
		t.Errorf("ApplyBatch + Drain allocates %.0f per 512-event batch but %.0f per 32-event batch: a per-batch buffer regrows with the batch", b, s)
	}
}
