package serve

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"rpai/internal/engine"
)

// TestParallelIngestDifferential is the multicore half of the differential
// suite: many producer goroutines apply partition-disjoint batches at
// GOMAXPROCS>1, and the drained grouped results must be bit-identical to a
// sequential single-goroutine apply of the same trace, on the engine's
// arena-tree executor (the one index serve runs). Partition disjointness is
// the load-bearing property: each
// producer owns the partitions where sym%producers matches its index, so
// within every partition the event order is the trace order no matter how the
// scheduler interleaves producers, and float non-associativity cannot leak
// into the comparison.
func TestParallelIngestDifferential(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		producers  = 8
		events     = 20000
		partitions = 97
		batch      = 37 // deliberately unaligned with BatchSize below
	)
	trace := symEvents(42, events, partitions)

	t.Run("arena", func(t *testing.T) {
		// Sequential reference on the same representation and shard count,
		// applied as one goroutine's worth of batches.
		ref := subFuzzService(t, 4, 1)
		defer ref.Close()
		for lo := 0; lo < len(trace); lo += batch {
			hi := min(lo+batch, len(trace))
			if err := ref.ApplyBatch(trace[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Drain(); err != nil {
			t.Fatal(err)
		}
		want := map[float64]uint64{}
		for _, g := range ref.ResultGrouped() {
			want[g.Key[0]] = math.Float64bits(g.Value)
		}
		wantTotal := math.Float64bits(ref.Result())

		// Parallel run: split the trace into producer-owned partition
		// classes, preserving trace order within each class.
		svc := subFuzzService(t, 4, 1)
		defer svc.Close()
		slices := make([][]engine.Event, producers)
		for _, e := range trace {
			p := int(uint64(e.Tuple["sym"])) % producers
			slices[p] = append(slices[p], e)
		}
		var wg sync.WaitGroup
		for _, own := range slices {
			wg.Add(1)
			go func(own []engine.Event) {
				defer wg.Done()
				for lo := 0; lo < len(own); lo += batch {
					hi := min(lo+batch, len(own))
					if err := svc.ApplyBatch(own[lo:hi]); err != nil {
						t.Errorf("ApplyBatch: %v", err)
						return
					}
				}
			}(own)
		}
		wg.Wait()
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}

		got := svc.ResultGrouped()
		if len(got) != len(want) {
			t.Fatalf("parallel run has %d partitions, sequential %d", len(got), len(want))
		}
		for _, g := range got {
			w, ok := want[g.Key[0]]
			if !ok {
				t.Fatalf("partition %v missing from sequential run", g.Key[0])
			}
			if math.Float64bits(g.Value) != w {
				t.Fatalf("partition %v: parallel %x, sequential %x (not bit-identical)",
					g.Key[0], math.Float64bits(g.Value), w)
			}
		}
		if gt := math.Float64bits(svc.Result()); gt != wantTotal {
			t.Fatalf("total: parallel %x, sequential %x", gt, wantTotal)
		}
	})
}

// TestStatsRaceDuringApplyBatch hammers Stats() from reader goroutines while
// producers push ApplyBatch traffic. Run under -race this pins the
// requirement that every counter Stats reads is synchronized with the shard
// workers that write it; without -race it still checks monotonicity of the
// applied counter across snapshots.
func TestStatsRaceDuringApplyBatch(t *testing.T) {
	const (
		producers = 4
		readers   = 4
		batches   = 150
		batch     = 32
	)
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 4, BatchSize: 16, QueueLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastApplied uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var applied uint64
				for _, s := range svc.Stats() {
					applied += s.Applied
					if s.Partitions < 0 {
						t.Errorf("negative partition count: %+v", s)
						return
					}
				}
				if applied < lastApplied {
					t.Errorf("applied went backwards: %d -> %d", lastApplied, applied)
					return
				}
				lastApplied = applied
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(seed int64) {
			defer pwg.Done()
			trace := producerTrace(seed, batches*batch, 13)
			for lo := 0; lo < len(trace); lo += batch {
				if err := svc.ApplyBatch(trace[lo : lo+batch]); err != nil {
					t.Errorf("ApplyBatch: %v", err)
					return
				}
			}
		}(int64(7 + p))
	}
	pwg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rwg.Wait()

	var applied uint64
	for _, s := range svc.Stats() {
		applied += s.Applied
	}
	if want := uint64(producers * batches * batch); applied != want {
		t.Fatalf("applied = %d, want %d", applied, want)
	}
}
