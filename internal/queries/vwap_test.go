package queries

import (
	"testing"

	"rpai/internal/aggindex"
	"rpai/internal/stream"
)

func TestVWAPStrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(false, 400) {
		checkAgreement(t, "vwap", cfg)
	}
}

func TestVWAPHandCheck(t *testing.T) {
	// Three bids: prices 10, 20, 30 with volumes 1, 1, 2. Total volume 4,
	// lhs = 3. rhs(10)=1, rhs(20)=2, rhs(30)=4. Only price 30 qualifies
	// (3 < 4): result = 30*2 = 60.
	q := newVWAPRPAI()
	for i, rec := range []stream.Record{
		{ID: 1, Price: 10, Volume: 1},
		{ID: 2, Price: 20, Volume: 1},
		{ID: 3, Price: 30, Volume: 2},
	} {
		q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: rec})
		_ = i
	}
	if got := q.Result(); got != 60 {
		t.Fatalf("Result = %v, want 60", got)
	}
	// Delete the price-30 bid: lhs = 1.5, rhs(10)=1, rhs(20)=2.
	// Price 20 qualifies: result = 20.
	q.Apply(stream.Event{Op: stream.Delete, Side: stream.Bids, Rec: stream.Record{ID: 3, Price: 30, Volume: 2}})
	if got := q.Result(); got != 20 {
		t.Fatalf("Result after delete = %v, want 20", got)
	}
}

func TestVWAPEmptyAndSingle(t *testing.T) {
	for _, s := range Strategies() {
		q := NewBids("vwap", s)
		if got := q.Result(); got != 0 {
			t.Fatalf("%s: empty result = %v", s, got)
		}
		q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 1, Price: 10, Volume: 5}})
		// Single bid: lhs = 3.75 < rhs = 5, qualifies: 50.
		if got := q.Result(); got != 50 {
			t.Fatalf("%s: single-bid result = %v, want 50", s, got)
		}
		q.Apply(stream.Event{Op: stream.Delete, Side: stream.Bids, Rec: stream.Record{ID: 1, Price: 10, Volume: 5}})
		if got := q.Result(); got != 0 {
			t.Fatalf("%s: result after full retraction = %v", s, got)
		}
	}
}

func TestVWAPIgnoresAsks(t *testing.T) {
	q := newVWAPRPAI()
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Asks, Rec: stream.Record{ID: 1, Price: 10, Volume: 5}})
	if got := q.Result(); got != 0 {
		t.Fatalf("ask event affected VWAP: %v", got)
	}
}

func TestVWAPIndexAblationsAgree(t *testing.T) {
	// The RPAI executor must compute identical results with any aggregate
	// index implementation (they differ only in complexity).
	cfg := stream.DefaultOrderBook(300)
	cfg.DeleteRatio = 0.2
	events := stream.GenerateOrderBook(cfg)
	base := newVWAPWith(aggindex.KindArena)
	pai := newVWAPWith(aggindex.KindPAI)
	for i, e := range events {
		base.Apply(e)
		pai.Apply(e)
		want := base.Result()
		if got := pai.Result(); !almostEqual(got, want) {
			t.Fatalf("pai diverged at event %d: %v vs %v", i, got, want)
		}
	}
}
