package serve

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// subFuzzService builds a sharded VWAP service on the engine plan with the
// given drain bound: BatchSize 1 makes every applied event its own commit and
// publication — the densest possible delta stream for a fuzzed subscriber to
// reconstruct — while 16 lets single-event queue items coalesce into shared
// commits, so frames carry several partitions' changes at once.
func subFuzzService(t *testing.T, shards, batchSize int) *Service {
	t.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards, BatchSize: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// subFuzzSeeds builds the committed seed corpus for FuzzSubscriptionDeltas.
// The input layout is shared with the engine's FuzzEngineDifferential — a
// shape byte, an 8-byte seed, then op/b1/b2 event triples — so adversarial
// traces found by one fuzzer can be replayed through the other. Here the
// shape byte selects the shard count and the drain bound instead of the query
// (the executors are not the surface under test; commit boundaries are).
func subFuzzSeeds() [][]byte {
	trace := []byte{
		1, 5, 9, 1, 5, 3, 1, 17, 28, 1, 5, 9, 0, 0, 1, 1, 200, 100,
		1, 39, 29, 0, 0, 0, 1, 5, 9, 1, 12, 12, 0, 0, 2, 1, 1, 1,
		2, 7, 13, 1, 9, 9, 0, 1, 0, 2, 21, 34, 1, 3, 27, 0, 0, 1,
	}
	var seeds [][]byte
	for shape := byte(0); shape < 4; shape++ {
		seeds = append(seeds, append([]byte{shape, 0, 0, 0, 0, 0, 0, 0, 77}, trace...))
	}
	return seeds
}

// FuzzSubscriptionDeltas is the subscription half of the differential fuzz
// suite: a random insert/delete stream with random publish boundaries and
// random subscriber attach/detach/resume churn, on one or two shards, with
// every event its own commit (BatchSize 1) or queued events coalescing into
// shared commits (BatchSize 16). The invariant is the
// replay-equals-pull contract: at every drained boundary the subscriber's
// view, reconstructed from delta frames alone, is bit-identical to what
// ResultGrouped returns at the same shard versions.
//
// Three more subscribers share the service, and with it every publication's
// delta runs: one filtered to two keys (held to the filtered pull), one on a
// probe lane installed with SetProbes (held to ProbeResultGrouped), and one
// left unread until the end, whose slot coalesces the whole stream by merging
// runs and must still converge on the final pull.
func FuzzSubscriptionDeltas(f *testing.F) {
	for _, s := range subFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		shape := data[0]
		batchSize := 1
		if shape&1 == 1 {
			batchSize = 16
		}
		shards := 1 + int(shape>>1)%2
		svc := subFuzzService(t, shards, batchSize)
		defer svc.Close()

		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(data[1:9]))))
		lane := engine.ProbeSpec{Const: 0.5}
		if err := svc.SetProbes([]engine.ProbeSpec{lane}); err != nil {
			t.Fatal(err)
		}
		sub, err := svc.Subscribe(SubOptions{Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { sub.Close() }()
		view := NewView()
		// side is one of the fixed subscribers that share the primary's runs.
		type side struct {
			name string
			sub  *Subscription
			view *View
			pull func() []engine.GroupResult
		}
		attach := func(name string, opt SubOptions, pull func() []engine.GroupResult) side {
			s, err := svc.Subscribe(opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			return side{name, s, NewView(), pull}
		}
		filtered := attach("filtered", SubOptions{Buffer: 1024, Keys: [][]float64{{1}, {3}}}, func() []engine.GroupResult {
			var out []engine.GroupResult
			for _, g := range svc.ResultGrouped() {
				if g.Key[0] == 1 || g.Key[0] == 3 {
					out = append(out, g)
				}
			}
			return out
		})
		laneSub := attach("lane", SubOptions{Buffer: 1024, Probe: &lane}, func() []engine.GroupResult {
			out, ok := svc.ProbeResultGrouped(lane)
			if !ok {
				t.Fatal("probe lane not published")
			}
			return out
		})
		lagging := attach("unread", SubOptions{Buffer: 1}, svc.ResultGrouped)
		check := func(what string, sd side) {
			t.Helper()
			syncView(t, sd.view, sd.sub, svc.ShardVersions())
			if got, want := sd.view.Grouped(), sd.pull(); !groupsIdentical(got, want) {
				t.Fatalf("%s: %s subscriber's view != pull:\n got %v\nwant %v", what, sd.name, got, want)
			}
		}

		// sync is a publish boundary: quiesce, catch the view up on frames
		// alone, and hold it to the pulled grouped results bit for bit.
		sync := func(what string) {
			t.Helper()
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			syncView(t, view, sub, svc.ShardVersions())
			if got, want := view.Grouped(), svc.ResultGrouped(); !groupsIdentical(got, want) {
				t.Fatalf("%s: replayed view != pulled results:\n got %v\nwant %v", what, got, want)
			}
			check(what, filtered)
			check(what, laneSub)
		}

		var live []query.Tuple
		events := 0
		for i := 9; i+2 < len(data) && events < 200; i += 3 {
			op, b1, b2 := data[i], data[i+1], data[i+2]
			var e engine.Event
			if op%4 == 0 && len(live) > 0 {
				j := (int(b1)<<8 | int(b2)) % len(live)
				e = engine.Delete(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				tup := query.Tuple{
					"sym":    float64(b1%5 + 1),
					"price":  float64(b2%40 + 1),
					"volume": float64((b1^b2)%30 + 1),
				}
				live = append(live, tup)
				e = engine.Insert(tup)
			}
			if err := svc.ApplyBatch([]engine.Event{e}); err != nil {
				t.Fatal(err)
			}
			events++

			if op%5 == 2 {
				sync("trace boundary")
			}
			if rng.Intn(10) == 0 {
				switch rng.Intn(3) {
				case 0:
					// Cold reattach: a fresh subscriber must be reseeded with
					// Full frames and reconstruct from scratch.
					sub.Close()
					view = NewView()
					if sub, err = svc.Subscribe(SubOptions{Buffer: 1024}); err != nil {
						t.Fatal(err)
					}
				case 1:
					// Resume: reattach quoting the view's coordinates. The
					// service either continues the delta stream (view state
					// provably current) or reseeds — the view absorbs both.
					sub.Close()
					sub, err = svc.Subscribe(SubOptions{
						Buffer:      1024,
						Resume:      view.Versions(),
						ResumeEpoch: svc.Epoch(),
					})
					if err != nil {
						t.Fatal(err)
					}
				case 2:
					// A transient second subscriber attaches and detaches
					// immediately; it must never disturb the primary stream.
					s2, err := svc.Subscribe(SubOptions{Buffer: 1})
					if err != nil {
						t.Fatal(err)
					}
					s2.Close()
				}
			}
		}
		sync("final")
		check("final", lagging)
	})
}

// TestWriteSubscriptionFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSubscriptionDeltas from subFuzzSeeds. Run with
// WRITE_FUZZ_CORPUS=1 after changing the input layout; skipped otherwise.
func TestWriteSubscriptionFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSubscriptionDeltas")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range subFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
