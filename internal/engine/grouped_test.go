package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rpai/internal/query"
)

// groupedVWAPSpec is VWAP grouped by broker: per-broker qualifying sums.
func groupedVWAPSpec() *query.Query {
	q := vwapSpec()
	q.GroupBy = []string{"broker"}
	return q
}

func groupedEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	var out []Event
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.2 {
			j := rng.Intn(len(live))
			out = append(out, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"price":  float64(rng.Intn(25) + 1),
			"volume": float64(rng.Intn(15) + 1),
			"broker": float64(rng.Intn(5) + 1),
		}
		live = append(live, t)
		out = append(out, Insert(t))
	}
	return out
}

func TestGroupedGeneralAgreesWithNaive(t *testing.T) {
	q := groupedVWAPSpec()
	for seed := int64(1); seed <= 3; seed++ {
		g, err := NewGeneral(q)
		if err != nil {
			t.Fatal(err)
		}
		naive := NewNaive(q)
		for i, e := range groupedEvents(seed, 350) {
			g.Apply(e)
			naive.Apply(e)
			want := naive.ResultGrouped()
			got := g.ResultGrouped()
			if !groupsEqual(got, want) {
				t.Fatalf("seed %d event %d:\n got %v\nwant %v", seed, i, got, want)
			}
			// The scalar result equals the sum over groups.
			var total float64
			for _, gr := range got {
				total += gr.Value
			}
			if !almostEqual(total, g.Result()) {
				t.Fatalf("seed %d event %d: grouped total %v vs scalar %v", seed, i, total, g.Result())
			}
		}
	}
}

func TestGroupedPlannerFallsBackToGeneral(t *testing.T) {
	ex, err := New(groupedVWAPSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy() != "general" {
		t.Fatalf("planner picked %s for a grouped query", ex.Strategy())
	}
	if _, ok := ex.(GroupedExecutor); !ok {
		t.Fatal("general executor does not implement GroupedExecutor")
	}
}

func TestGroupedMultiColumnKeyOrder(t *testing.T) {
	q := vwapSpec()
	q.GroupBy = []string{"broker", "venue"}
	g, err := NewGeneral(q)
	if err != nil {
		t.Fatal(err)
	}
	// Two tuples, both qualifying trivially (single tuple: lhs = 0.75v < v).
	g.Apply(Insert(query.Tuple{"price": 10, "volume": 4, "broker": 2, "venue": 7}))
	g.Apply(Insert(query.Tuple{"price": 10, "volume": 4, "broker": 1, "venue": 9}))
	got := g.ResultGrouped()
	if len(got) == 0 {
		t.Fatal("no groups")
	}
	// Sorted by key: broker 1 before broker 2.
	if got[0].Key[0] != 1 || got[0].Key[1] != 9 {
		t.Fatalf("groups unsorted: %v", got)
	}
	for _, gr := range got {
		if len(gr.Key) != 2 {
			t.Fatalf("key arity = %d", len(gr.Key))
		}
	}
}

func TestGroupedEmptyAndFullRetraction(t *testing.T) {
	g, err := NewGeneral(groupedVWAPSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ResultGrouped(); len(got) != 0 {
		t.Fatalf("groups on empty stream: %v", got)
	}
	tu := query.Tuple{"price": 5, "volume": 3, "broker": 1}
	g.Apply(Insert(tu))
	if got := g.ResultGrouped(); len(got) != 1 {
		t.Fatalf("groups = %v", got)
	}
	g.Apply(Delete(tu))
	if got := g.ResultGrouped(); len(got) != 0 {
		t.Fatalf("groups after retraction: %v", got)
	}
}

func groupsEqual(a, b []GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Key, b[i].Key) || !almostEqual(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestCompareKeysTotalOrder holds CompareKeys to a total order with NaN after
// every number: every permutation of a key set containing NaNs sorts to the
// same sequence. The `<` comparator it replaced is not a strict weak order
// once a NaN is present, so its sort output depended on the input order.
func TestCompareKeysTotalOrder(t *testing.T) {
	nan := math.NaN()
	keys := [][]float64{{2, 1}, {nan, 0}, {1, nan}, {1, 0}, {3, 3}, {0, 9}, {nan, nan}, {-1, 4}, {1, 2}}
	want := [][]float64{{-1, 4}, {0, 9}, {1, 0}, {1, 2}, {1, nan}, {2, 1}, {3, 3}, {nan, 0}, {nan, nan}}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		gs := make([]GroupResult, len(keys))
		for i, j := range rng.Perm(len(keys)) {
			gs[i] = GroupResult{Key: keys[j]}
		}
		SortGroups(gs)
		for i, g := range gs {
			for c := range g.Key {
				if math.Float64bits(g.Key[c]) != math.Float64bits(want[i][c]) {
					t.Fatalf("trial %d: position %d is %v, want %v", trial, i, g.Key, want[i])
				}
			}
		}
	}
	for _, k := range keys {
		if CompareKeys(k, k) != 0 {
			t.Fatalf("CompareKeys(%v, itself) != 0", k)
		}
	}
}
