package serve

import (
	"math/rand"
	"sync"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestConcurrentProducersAndReaders hammers one service with P producer
// goroutines and R reader goroutines. Every value the producers insert is an
// integer, so per-partition aggregates are exact and order-independent: after
// a Drain the served total must equal the serial reference no matter how the
// scheduler interleaved the producers. Run under -race this is the shard-level
// data-race test the serving layer is required to pass.
func TestConcurrentProducersAndReaders(t *testing.T) {
	const (
		producers  = 4
		readers    = 3
		perTrace   = 2500
		partitions = 17
	)
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 4, BatchSize: 16, QueueLen: 128})
	if err != nil {
		t.Fatal(err)
	}

	// Each producer owns its own trace; deletes retract only tuples that same
	// producer inserted, so the union of all traces is a well-formed
	// insert/retract multiset regardless of interleaving.
	traces := make([][]engine.Event, producers)
	for p := range traces {
		traces[p] = producerTrace(int64(100+p), perTrace, partitions)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = svc.Result()
				_ = svc.ResultGrouped()
				_ = svc.Stats()
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(events []engine.Event) {
			defer pwg.Done()
			for i := range events {
				if err := svc.ApplyBatch(events[i : i+1]); err != nil {
					t.Errorf("ApplyBatch: %v", err)
					return
				}
			}
		}(traces[p])
	}
	pwg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	var all []engine.Event
	for _, tr := range traces {
		all = append(all, tr...)
	}
	want := serialReference(t, q, all)
	var wantTotal float64
	for _, v := range want {
		wantTotal += v
	}
	if got := svc.Result(); got != wantTotal {
		t.Fatalf("concurrent total = %v, want %v", got, wantTotal)
	}
	for _, g := range svc.ResultGrouped() {
		if want[g.Key[0]] != g.Value {
			t.Fatalf("partition %v = %v, want %v", g.Key[0], g.Value, want[g.Key[0]])
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// producerTrace is symEvents restricted to one producer's private live set.
func producerTrace(seed int64, n, partitions int) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	out := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(live))
			out = append(out, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// TestCloseRacesWithProducers closes the service while producers are still
// applying: every ApplyBatch must either succeed or return ErrClosed, never panic
// (send on closed channel) or deadlock, and Close must still drain cleanly.
func TestCloseRacesWithProducers(t *testing.T) {
	for round := 0; round < 20; round++ {
		q := vwapSpec()
		svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 8, QueueLen: 32})
		if err != nil {
			t.Fatal(err)
		}
		events := producerTrace(int64(round), 600, 7)
		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := off; i < len(events); i++ {
					if err := svc.ApplyBatch(events[i : i+1]); err != nil {
						if err != ErrClosed {
							t.Errorf("ApplyBatch: %v", err)
						}
						return
					}
				}
			}(p * 200)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		_ = svc.Result() // final snapshots must remain readable
	}
}

// TestDrainRacesWithProducers interleaves Drain barriers with concurrent
// producers: each Drain must return without deadlock while traffic continues.
func TestDrainRacesWithProducers(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2, BatchSize: 8, QueueLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	events := producerTrace(9, 3000, 11)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range events {
			if err := svc.ApplyBatch(events[i : i+1]); err != nil {
				t.Errorf("ApplyBatch: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, q, events)
	var wantTotal float64
	for _, v := range want {
		wantTotal += v
	}
	if got := svc.Result(); got != wantTotal {
		t.Fatalf("total = %v, want %v", got, wantTotal)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
