package catalog

import (
	"fmt"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestAllocGuardBatchRecord holds a warmed durable catalog's ingest to
// allocations that do not grow with the batch, on both ways in, fanning out
// to one state set and to sixteen distinct ones. The record path —
// DecodeRecord and ApplyRecord, what the wire server runs — decodes into a
// Batch the caller keeps (rows, no tuple map per event), admits it once per
// distinct check, logs the record as received, resolves each event's
// partition once, and fans the rows out; the map edge, ApplyBatch, encodes
// into a pooled record buffer and takes the same path. The derived tables
// are kept rather than rebuilt per batch, and the routing scratch and
// serve's pooled boxes are already grown. A buffer allocated per batch
// regrows logarithmically in the batch's byte size, and a per-event
// allocation (a decoded tuple map) grows linearly; either fails the guard.
// The guard runs without -race only: serve takes its batch boxes from a
// sync.Pool, which the race detector makes drop a quarter of its Puts at
// random, and a box the pool lost costs three allocations to replace — a
// random count that varies by more than the guard's one of slack.
func TestAllocGuardBatchRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, sets := range []int{1, 16} {
		t.Run(fmt.Sprintf("sets=%d", sets), func(t *testing.T) { checkBatchRecordAllocs(t, sets) })
	}
}

func checkBatchRecordAllocs(t *testing.T, sets int) {
	opt := Options{PartitionBy: []string{"sym"}, Shards: 1, Dir: t.TempDir()}
	if sets > 1 {
		// Every set's shard commits a 512-event batch on its own when the
		// drain bound is below it, and the drain barrier then takes a commit
		// of its own — one snapshot per set that a 32-event batch shares.
		// A bound above both batches keeps the commit count equal, so the
		// comparison sees only buffers and per-event allocations.
		opt.BatchSize = 1024
	}
	cat, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	sqls := []string{sqlVWAP}
	if sets > 1 {
		sqls = sqls[:0]
		for k := 0; k < sets; k++ {
			sqls = append(sqls, vwapVariant(k))
		}
	}
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
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
			if err := cat.DrainAll(); err != nil {
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
			if err := cat.DrainAll(); err != nil {
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
			t.Errorf("%s + DrainAll allocates %.0f per 512-event batch but %.0f per 32-event batch: a buffer regrows with the batch or an event allocates", path.name, b, s)
		}
	}
}
