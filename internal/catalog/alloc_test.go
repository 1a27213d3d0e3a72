package catalog

import (
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestAllocGuardBatchRecord holds a warmed durable catalog's ingest to
// allocations that do not grow with the batch, on both ways in. The record
// path — DecodeRecord and ApplyRecord, what the wire server runs — decodes
// into a Batch the caller keeps (rows, no tuple map per event), logs the
// record as received, and fans the rows out; the map edge, ApplyBatch,
// encodes into a pooled record buffer and takes the same path. The
// distinct-set list is kept rather than rebuilt per batch, and serve's
// pooled boxes and per-partition buffers are already grown. A buffer
// allocated per batch regrows logarithmically in the batch's byte size, and
// a per-event allocation (a decoded tuple map) grows linearly; either fails
// the guard.
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
	var b Batch
	record := func(events []engine.Event) func() {
		rec := encodeBatchRecord(nil, events)
		return func() {
			if err := cat.DecodeRecord(&b, rec); err != nil {
				t.Fatal(err)
			}
			if err := cat.ApplyRecord(&b); err != nil {
				t.Fatal(err)
			}
			if err := cat.Drain(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range []struct {
		name string
		run  func([]engine.Event) func()
	}{{"ApplyBatch", run}, {"DecodeRecord + ApplyRecord", record}} {
		for i := 0; i < 4; i++ {
			path.run(big)()
			path.run(small)()
		}
		s := testing.AllocsPerRun(100, path.run(small))
		b := testing.AllocsPerRun(100, path.run(big))
		// One allocation of slack: whether the drain barrier shares the
		// batch's commit (one snapshot header fewer) depends on scheduling,
		// and a short batch shares it more often.
		if b > s+1 {
			t.Errorf("%s + Drain allocates %.0f per 512-event batch but %.0f per 32-event batch: a buffer regrows with the batch or an event allocates", path.name, b, s)
		}
	}
}
