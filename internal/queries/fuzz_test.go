package queries

import (
	"testing"

	"rpai/internal/stream"
)

// Trace bounds of FuzzFinanceStrategies: every input replays financeFuzzEvents
// events through RPAI and Toaster and the first financeFuzzNaive of them
// through the naive oracle too, whose per-event cost grows with the live set
// (cubically for NQ2). -short divides both by ten, as the soak does.
const (
	financeFuzzEvents = 2000
	financeFuzzNaive  = 200
)

// FuzzFinanceStrategies is the randomized differential soak over the finance
// queries: an input picks a query, a trace seed, a delete ratio (percent,
// modulo 100) and a price grid, and the generated order-book trace must give
// the same result through the RPAI and Toaster executors after every event,
// and through RPAI and the naive oracle on a short prefix.
// TestSoakAllQueriesRPAIvsToaster is one fixed input of the same property at
// a larger trace size.
//
// Run with `go test -fuzz FuzzFinanceStrategies ./internal/queries`.
func FuzzFinanceStrategies(f *testing.F) {
	// Seeds: every query at trace seeds 2 and 3, 30 % deletes and 32 + s%64
	// price levels for trace seed s (the maximum volume, 10 + s%50, comes
	// from the seed inside the target).
	for s := int64(2); s <= 3; s++ {
		for qi := range FinanceQueries() {
			f.Add(s, uint8(qi), uint8(30), uint16(32+s%64))
		}
	}
	events, naive := financeFuzzEvents, financeFuzzNaive
	if testing.Short() {
		events, naive = events/10, naive/10
	}
	f.Fuzz(func(t *testing.T, seed int64, qi uint8, deletePct uint8, levels uint16) {
		qs := FinanceQueries()
		q := qs[int(qi)%len(qs)]
		cfg := stream.DefaultOrderBook(events)
		cfg.Seed = seed
		cfg.DeleteRatio = float64(deletePct%100) / 100
		cfg.PriceLevels = 1 + int(levels%512)
		cfg.MaxVolume = 10 + int(uint64(seed)%50)
		cfg.BothSides = q.BothSides
		rp := NewBids(q.Name, RPAI)
		to := NewBids(q.Name, Toaster)
		na := NewBids(q.Name, Naive)
		for i, e := range stream.GenerateOrderBook(cfg) {
			rp.Apply(e)
			to.Apply(e)
			got := rp.Result()
			if want := to.Result(); !almostEqual(got, want) {
				t.Fatalf("%s %+v event %d: rpai %v vs toaster %v", q.Name, cfg, i, got, want)
			}
			if i < naive {
				na.Apply(e)
				if want := na.Result(); !almostEqual(got, want) {
					t.Fatalf("%s %+v event %d: rpai %v vs naive %v", q.Name, cfg, i, got, want)
				}
			}
		}
	})
}
