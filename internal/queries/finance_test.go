package queries

import (
	"testing"

	"rpai/internal/stream"
)

func TestMSTStrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(true, 300) {
		checkAgreement(t, "mst", cfg)
	}
}

func TestMSTHandCheck(t *testing.T) {
	// Asks: price 100 vol 10, price 110 vol 2. Total ask volume 12,
	// threshold 3. rhs(100) = 2 < 3 qualifies; rhs(110) = 0 < 3 qualifies.
	// Bids: price 90 vol 8, price 80 vol 4. Total 12, threshold 3.
	// rhs(90) = 0 qualifies; rhs(80) = 8 not.
	// QA = both asks: cnt 2, pv = 100*10 + 110*2 = 1220.
	// QB = the 90-bid: cnt 1, pv = 90*8 = 720.
	// Result = 1*1220 - 2*720 = -220.
	q := newMSTRPAI()
	events := []stream.Event{
		{Op: stream.Insert, Side: stream.Asks, Rec: stream.Record{ID: 1, Price: 100, Volume: 10}},
		{Op: stream.Insert, Side: stream.Asks, Rec: stream.Record{ID: 2, Price: 110, Volume: 2}},
		{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 3, Price: 90, Volume: 8}},
		{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 4, Price: 80, Volume: 4}},
	}
	for _, e := range events {
		q.Apply(e)
	}
	if got := q.Result(); got != -220 {
		t.Fatalf("Result = %v, want -220", got)
	}
}

func TestPSPStrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(true, 300) {
		checkAgreement(t, "psp", cfg)
	}
}

func TestPSPThresholdBoundary(t *testing.T) {
	// Volumes exactly at the threshold must not qualify (strict >).
	q := newPSPRPAI()
	// One bid with volume 1: threshold = 0.0001, volume 1 > it: qualifies.
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 1, Price: 50, Volume: 1}})
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Asks, Rec: stream.Record{ID: 2, Price: 60, Volume: 1}})
	// res = cntQB*prQA - cntQA*prQB = 1*60 - 1*50 = 10.
	if got := q.Result(); got != 10 {
		t.Fatalf("Result = %v, want 10", got)
	}
}

func TestSQ1StrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(false, 250) {
		checkAgreement(t, "sq1", cfg)
	}
}

func TestSQ2StrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(false, 300) {
		checkAgreement(t, "sq2", cfg)
	}
}

func TestSQ2HalvedPriceBoundary(t *testing.T) {
	// 2*b2.price <= b.price boundary: records at price 10 and 20.
	// For outer 20: records with 2*price <= 20, i.e. price <= 10: rhs = vol(10).
	q := newSQ2RPAI()
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 1, Price: 10, Volume: 3}})
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 2, Price: 20, Volume: 1}})
	// total = 4, lhs = 3. rhs(10) = vol(price <= 5) = 0; rhs(20) = vol(price <= 10) = 3.
	// Neither 3 < 0 nor 3 < 3: result 0.
	if got := q.Result(); got != 0 {
		t.Fatalf("Result = %v, want 0", got)
	}
	// Add volume at price 10 so rhs(20) = 5 > lhs = 3.75: result = 20*1.
	q.Apply(stream.Event{Op: stream.Insert, Side: stream.Bids, Rec: stream.Record{ID: 3, Price: 10, Volume: 2}})
	if got := q.Result(); got != 20 {
		t.Fatalf("Result = %v, want 20", got)
	}
}

func TestNQ1StrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(false, 150) {
		checkAgreement(t, "nq1", cfg)
	}
}

func TestNQ1LongerTraceRPAIvsToaster(t *testing.T) {
	// The naive O(n^3) executor limits the agreement grid to short traces;
	// cross-check the RPAI executor against the toaster one on longer,
	// delete-heavy traces to exercise many qualifying-boundary crossings.
	for seed := int64(1); seed <= 3; seed++ {
		cfg := stream.DefaultOrderBook(1500)
		cfg.Seed = seed
		cfg.DeleteRatio = 0.3
		cfg.PriceLevels = 40
		rp := newNQ1RPAI()
		to := newNQ1Toaster()
		for i, e := range stream.GenerateOrderBook(cfg) {
			rp.Apply(e)
			to.Apply(e)
			if got, want := rp.Result(), to.Result(); !almostEqual(got, want) {
				t.Fatalf("seed %d event %d: rpai %v vs toaster %v", seed, i, got, want)
			}
		}
	}
}

func TestNQ2StrategiesAgree(t *testing.T) {
	for _, cfg := range financeAgreementConfigs(false, 120) {
		checkAgreement(t, "nq2", cfg)
	}
}

func TestNQ2LongerTraceRPAIvsToaster(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		cfg := stream.DefaultOrderBook(500)
		cfg.Seed = seed
		cfg.DeleteRatio = 0.25
		cfg.PriceLevels = 30
		rp := newNQ2RPAI()
		to := newNQ2Toaster()
		for i, e := range stream.GenerateOrderBook(cfg) {
			rp.Apply(e)
			to.Apply(e)
			if got, want := rp.Result(), to.Result(); !almostEqual(got, want) {
				t.Fatalf("seed %d event %d: rpai %v vs toaster %v", seed, i, got, want)
			}
		}
	}
}

func TestNewBidsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBids with unknown query did not panic")
		}
	}()
	NewBids("nope", RPAI)
}

func TestFinanceQueriesRegistryComplete(t *testing.T) {
	for _, q := range FinanceQueries() {
		for _, s := range Strategies() {
			ex := NewBids(q.Name, s)
			if ex.Name() != q.Name || ex.Strategy() != s {
				t.Fatalf("registry mismatch for %s/%s", q.Name, s)
			}
		}
	}
}
