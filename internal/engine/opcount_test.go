package engine

import (
	"math"
	"testing"

	"rpai/internal/paimap"
)

// goldenEQ1Writes is the committed index-write count for the trace below:
// the PAI map entries the equality executor inserts, changes or removes
// replaying priceVolumeEvents(42, 4000, 0.3) against eq1Spec, as measured when
// this guard was re-pointed at the PAI executor (the range-shift executor's
// two-lane tree is not observable from here). A point move writes at most two
// entries, so the count fails past double the golden value on an algorithmic
// regression — a range shift or a rebuild that rewrites keys — long before it
// would show up as benchmark noise. If the executor legitimately changes its
// access pattern, re-measure with
// `go test -run TestAggIndexOpCountGuard -v ./internal/engine` and update the
// constant in the same change.
const goldenEQ1Writes = 7976

func TestAggIndexOpCountGuard(t *testing.T) {
	q := eq1Spec()
	planned, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := planned.(*AggIndexExec)
	if !ok {
		t.Fatalf("planner built %T for EQ1, want the PAI executor", planned)
	}

	// writes counts the entries that differ between two states of the map.
	entries := func(m *paimap.Map) map[float64]uint64 {
		out := map[float64]uint64{}
		m.Ascend(func(k, v float64) bool {
			out[k] = math.Float64bits(v)
			return true
		})
		return out
	}
	var writes int
	prev := entries(ex.agg)
	events := priceVolumeEvents(42, 4000, 0.3)
	for _, e := range events {
		ex.Apply(e)
		cur := entries(ex.agg)
		for k, v := range cur {
			if old, ok := prev[k]; !ok || old != v {
				writes++
			}
		}
		for k := range prev {
			if _, ok := cur[k]; !ok {
				writes++
			}
		}
		prev = cur
	}

	// Cross-check the observed run still computes the right answer.
	ref, err := NewGeneral(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		ref.Apply(e)
	}
	if got, want := ex.Result(), ref.Result(); got != want {
		t.Fatalf("PAI executor result %v, want %v", got, want)
	}

	t.Logf("PAI map entry writes for %d events: %d (golden %d)", len(events), writes, goldenEQ1Writes)
	if writes > 2*goldenEQ1Writes {
		t.Fatalf("PAI executor wrote %d index entries for %d events; golden count is %d "+
			"(limit 2x) — an algorithmic regression in the incremental maintenance path",
			writes, len(events), goldenEQ1Writes)
	}
	// A floor too: if the count collapses, the executor stopped maintaining
	// the index (e.g. silently fell back to recomputation elsewhere) and this
	// guard would be watching nothing.
	if writes < goldenEQ1Writes/2 {
		t.Fatalf("PAI executor wrote only %d index entries (golden %d); "+
			"the guard is no longer measuring the maintenance path — re-baseline it",
			writes, goldenEQ1Writes)
	}
}
