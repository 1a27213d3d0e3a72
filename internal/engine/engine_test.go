package engine

import (
	"math"
	"math/rand"
	"testing"

	"rpai/internal/query"
	"rpai/internal/stream"
)

// --- query specs used across the tests ---

// vwapSpec is Example 2.2 expressed in the grammar:
// SUM(price*volume) WHERE 0.75*SUM(volume) < SUM(volume | price<=price).
func vwapSpec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// eq1Spec is Example 2.1: SUM(A*B) WHERE 0.5*SUM(B) = SUM(B | A=A).
func eq1Spec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("a"), query.Col("b")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.5, &query.Subquery{Kind: query.Sum, Of: query.Col("b")}),
			Op:   query.Eq,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("b"),
				Where: &query.CorrPred{Inner: query.Col("a"), Op: query.Eq, Outer: query.Col("a")},
			}),
		}},
	}
}

// sq2Spec has an asymmetric correlation (2*price <= price), outside the
// aggregate-index pattern: exercises the general algorithm.
func sq2Spec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind: query.Sum,
				Of:   query.Col("volume"),
				Where: &query.CorrPred{
					Inner: query.BinOp{Op: query.OpMul, L: query.Const(2), R: query.Col("price")},
					Op:    query.Le,
					Outer: query.Col("price"),
				},
			}),
		}},
	}
}

// countSpec uses COUNT on both sides:
// SUM(volume) WHERE 0.5*COUNT(*) <= COUNT(* | price <= price).
func countSpec() *query.Query {
	return &query.Query{
		Agg: query.Col("volume"),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.5, &query.Subquery{Kind: query.Count}),
			Op:   query.Le,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Count,
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// avgSpec compares an average against a correlated sum, with the correlated
// side on the LEFT (exercises operator flipping):
// SUM(volume) WHERE SUM(volume | price <= price) > 2*AVG(volume).
func avgSpec() *query.Query {
	return &query.Query{
		Agg: query.Col("volume"),
		Preds: []query.Predicate{{
			Left: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
			Op:    query.Gt,
			Right: query.ValSub(2, &query.Subquery{Kind: query.Avg, Of: query.Col("volume")}),
		}},
	}
}

// twoPredSpec has two predicates (not aggregate-index eligible):
// SUM(price) WHERE volume > 0.001*SUM(volume) AND 0.75*SUM(volume) < SUM(volume | price<=price).
func twoPredSpec() *query.Query {
	return &query.Query{
		Agg: query.Col("price"),
		Preds: []query.Predicate{
			{
				Left:  query.ValExpr(query.Col("volume")),
				Op:    query.Gt,
				Right: query.ValSub(0.001, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			},
			{
				Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
				Op:   query.Lt,
				Right: query.ValSub(1, &query.Subquery{
					Kind:  query.Sum,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
				}),
			},
		},
	}
}

// --- helpers ---

func priceVolumeEvents(seed int64, n int, deleteRatio float64) []Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < deleteRatio {
			j := rng.Intn(len(live))
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"price":  float64(rng.Intn(40) + 1),
			"volume": float64(rng.Intn(30) + 1),
			"a":      float64(rng.Intn(10) + 1),
			"b":      float64(rng.Intn(8) + 1),
		}
		live = append(live, t)
		events = append(events, Insert(t))
	}
	return events
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkAgainstNaive(t *testing.T, q *query.Query, incr Executor, seed int64, n int) {
	t.Helper()
	naive := NewNaive(q)
	for i, e := range priceVolumeEvents(seed, n, 0.2) {
		naive.Apply(e)
		incr.Apply(e)
		if got, want := incr.Result(), naive.Result(); !almostEqual(got, want) {
			t.Fatalf("%s diverged at event %d (seed %d): got %v want %v\nquery: %s",
				incr.Strategy(), i, seed, got, want, q)
		}
	}
}

// --- tests ---

func TestGeneralAgreesWithNaive(t *testing.T) {
	specs := map[string]*query.Query{
		"vwap":    vwapSpec(),
		"eq1":     eq1Spec(),
		"sq2":     sq2Spec(),
		"count":   countSpec(),
		"avg":     avgSpec(),
		"twopred": twoPredSpec(),
	}
	for name, q := range specs {
		q := q
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := NewGeneral(q)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstNaive(t, q, g, seed, 300)
			}
		})
	}
}

// TestAggIndexAgreesWithNaive runs the section 4.3 executors the planner
// builds — the range-shift executor for the inequality shapes, the PAI
// executor for EQ1 — against the naive oracle.
func TestAggIndexAgreesWithNaive(t *testing.T) {
	specs := map[string]*query.Query{
		"vwap":  vwapSpec(),
		"eq1":   eq1Spec(),
		"count": countSpec(),
		"avg":   avgSpec(),
	}
	for name, q := range specs {
		q := q
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ex, err := New(q)
				if err != nil {
					t.Fatal(err)
				}
				if s := ex.Strategy(); s != "relstate" && s != "aggindex" {
					t.Fatalf("planner picked %s, want an aggregate-index executor", s)
				}
				checkAgainstNaive(t, q, ex, seed, 300)
			}
		})
	}
}

func TestPlannerSelection(t *testing.T) {
	cases := []struct {
		q    *query.Query
		want string
	}{
		{vwapSpec(), "relstate"},
		{eq1Spec(), "aggindex"},
		{countSpec(), "relstate"},
		{avgSpec(), "relstate"},
		{sq2Spec(), "general"},     // asymmetric correlation
		{twoPredSpec(), "general"}, // two predicates
	}
	for _, c := range cases {
		ex, err := New(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Strategy() != c.want {
			t.Errorf("New(%s) picked %s, want %s", c.q, ex.Strategy(), c.want)
		}
	}
}

func TestAggIndexRejectsIneligible(t *testing.T) {
	for name, q := range map[string]*query.Query{"asymmetric correlation": sq2Spec(), "two predicates": twoPredSpec()} {
		ex, err := New(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ex.(*GeneralExec); !ok {
			t.Fatalf("%s: planner built %T, want the general algorithm", name, ex)
		}
	}
}

func TestNonStreamableRejected(t *testing.T) {
	q := &query.Query{
		Agg: query.Col("volume"),
		Preds: []query.Predicate{{
			Left:  query.ValExpr(query.Col("price")),
			Op:    query.Gt,
			Right: query.ValSub(1, &query.Subquery{Kind: query.Max, Of: query.Col("price")}),
		}},
	}
	if _, err := New(q); err == nil {
		t.Fatal("New accepted a MAX subquery under deletion streams")
	}
	if _, err := NewGeneral(q); err == nil {
		t.Fatal("NewGeneral accepted a MAX subquery")
	}
}

// TestEngineMatchesHandCodedVWAP replays an order-book trace through both the
// generic engine and the hand-written VWAP executor from package queries.
func TestEngineMatchesHandCodedVWAP(t *testing.T) {
	cfg := stream.DefaultOrderBook(500)
	cfg.DeleteRatio = 0.15
	cfg.PriceLevels = 60
	ex, err := New(vwapSpec())
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(vwapSpec())
	for i, e := range stream.GenerateOrderBook(cfg) {
		tu := query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume, "id": float64(e.Rec.ID)}
		ev := Event{X: e.X(), Tuple: tu}
		ex.Apply(ev)
		naive.Apply(ev)
		if got, want := ex.Result(), naive.Result(); !almostEqual(got, want) {
			t.Fatalf("event %d: %v vs %v", i, got, want)
		}
	}
}

func TestQueryStringRendering(t *testing.T) {
	got := vwapSpec().String()
	want := "SELECT SUM((price * volume)) FROM R WHERE 0.75 * (SELECT SUM(volume) FROM R) < (SELECT SUM(volume) FROM R WHERE price <= price)"
	if got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
}

func TestGeneralGroupCleanup(t *testing.T) {
	g, err := NewGeneral(vwapSpec())
	if err != nil {
		t.Fatal(err)
	}
	tu := query.Tuple{"price": 10, "volume": 5}
	g.Apply(Insert(tu))
	g.Apply(Delete(tu))
	if len(g.groups) != 0 {
		t.Fatalf("stale groups after full retraction: %d", len(g.groups))
	}
	if got := g.Result(); got != 0 {
		t.Fatalf("Result = %v", got)
	}
}

// TestAggIndexPositiveContributionContract pins the range-shift executor's
// refusal of a non-positive inner weight (distinct levels need strictly
// distinct keys); admission refuses such events before they get here.
func TestAggIndexPositiveContributionContract(t *testing.T) {
	ex, err := New(vwapSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight tuple did not panic")
		}
	}()
	ex.Apply(Insert(query.Tuple{"price": 10, "volume": 0}))
}
