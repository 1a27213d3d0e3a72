package queries

import (
	"testing"

	"rpai/internal/aggindex"
	"rpai/internal/stream"
)

func eq1Configs() []stream.RABConfig {
	mk := func(seed int64, del float64, adom, bmax int) stream.RABConfig {
		return stream.RABConfig{Seed: seed, Events: 500, DeleteRatio: del, ADomain: adom, BMax: bmax}
	}
	return []stream.RABConfig{
		mk(1, 0, 20, 10),
		mk(2, 0.25, 20, 10),
		mk(3, 0.05, 3, 4), // tiny domains: frequent rhs collisions and exact matches
		mk(4, 0.4, 50, 30),
	}
}

func TestEQ1StrategiesAgree(t *testing.T) {
	for _, cfg := range eq1Configs() {
		events := stream.GenerateRAB(cfg)
		execs := []RABExecutor{NewEQ1(Naive), NewEQ1(Toaster), NewEQ1(RPAI)}
		for i, e := range events {
			for _, ex := range execs {
				ex.Apply(e)
			}
			want := execs[0].Result()
			for _, ex := range execs[1:] {
				if got := ex.Result(); !almostEqual(got, want) {
					t.Fatalf("%s diverged from naive at event %d (seed %d): %v vs %v",
						ex.Strategy(), i, cfg.Seed, got, want)
				}
			}
		}
	}
}

func TestEQ1HandCheck(t *testing.T) {
	// Groups: A=1 with B sums 6; A=2 with B sums 6; total B = 12, lhs = 6.
	// Both groups match: result = sum(A*B) = 1*6 + 2*6 = 18.
	q := NewEQ1(RPAI)
	for _, rec := range []stream.RAB{{A: 1, B: 2}, {A: 1, B: 4}, {A: 2, B: 6}} {
		q.Apply(stream.RABEvent{Op: stream.Insert, Rec: rec})
	}
	if got := q.Result(); got != 18 {
		t.Fatalf("Result = %v, want 18", got)
	}
	// Delete (1,4): group A=1 sums 2, total 8, lhs 4: no group matches.
	q.Apply(stream.RABEvent{Op: stream.Delete, Rec: stream.RAB{A: 1, B: 4}})
	if got := q.Result(); got != 0 {
		t.Fatalf("Result after delete = %v, want 0", got)
	}
}

func TestEQ1EmptyGroupRetraction(t *testing.T) {
	// Fully retracting a group must leave no stale index entries behind.
	q := newEQ1RPAI()
	q.Apply(stream.RABEvent{Op: stream.Insert, Rec: stream.RAB{A: 5, B: 3}})
	q.Apply(stream.RABEvent{Op: stream.Delete, Rec: stream.RAB{A: 5, B: 3}})
	if got := q.Result(); got != 0 {
		t.Fatalf("Result = %v, want 0", got)
	}
	if q.agg.Len() != 0 {
		t.Fatalf("stale aggregate entries: %d", q.agg.Len())
	}
	if len(q.sumBA) != 0 || len(q.sumAB) != 0 {
		t.Fatal("stale group maps after retraction")
	}
}

func TestEQ1FractionalLHSNeverMatches(t *testing.T) {
	// Odd total B makes lhs fractional; with integral group sums no group
	// can match.
	q := NewEQ1(RPAI)
	q.Apply(stream.RABEvent{Op: stream.Insert, Rec: stream.RAB{A: 1, B: 3}})
	if got := q.Result(); got != 0 {
		t.Fatalf("Result = %v, want 0", got)
	}
}

// TestEQ1IndexKindsAgree: the equality-correlated executor produces the same
// results whichever aggregate index backs it.
func TestEQ1IndexKindsAgree(t *testing.T) {
	cfg := stream.DefaultRAB(500)
	cfg.DeleteRatio = 0.25
	events := stream.GenerateRAB(cfg)
	base := NewEQ1WithIndex(aggindex.KindPAI)
	arena := NewEQ1WithIndex(aggindex.KindArena)
	for i, e := range events {
		base.Apply(e)
		arena.Apply(e)
		if got, want := arena.Result(), base.Result(); !almostEqual(got, want) {
			t.Fatalf("event %d: arena diverged: %v vs %v", i, got, want)
		}
	}
}
