package engine

import (
	"errors"
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

// inexactTrace is ROADMAP item 1's crash trace: integer prices 0–49, volumes
// k·0.1 (k = 1…9) — not representable, so every running volume sum rounds —
// and 30 % deletes of live rows.
func inexactTrace(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	events := make([]Event, 0, n)
	for len(events) < n {
		if len(live) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(live))
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{"price": float64(rng.Intn(50)), "volume": 0.1 * float64(rng.Intn(9)+1)}
		live = append(live, t)
		events = append(events, Insert(t))
	}
	return events
}

// TestInexactWeightsNeverPanic drives the VWAP plan under each correlation
// operator through inexact-volume traces, 40 seeds each. Before the level
// tree the index keyed each level by a running volume sum, found it again by
// float equality after a shift, and panicked (index out of range [-1]) when
// the lookup landed an ulp off — on all 40 seeds of every operator. Now no
// key is derived from arithmetic: every event must be admitted and applied,
// and every Result must stay within almostEqual of the naive oracle (or of
// the live terms' magnitude, for a result that cancels to about 0) — except
// where ROADMAP item 1's remaining divergence applies: a level whose exact
// correlated sum equals the exact threshold (volumes are tenths, the scale
// 3/4, so such ties are common) qualifies or not by how each side rounded its
// sums, and the engine and the oracle sum in different orders. Those events
// are detected in exact integer arithmetic, skipped and counted. -short (the
// race job) runs 8 of the seeds: the oracle is quadratic per read.
func TestInexactWeightsNeverPanic(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for _, op := range []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge} {
		q := vwapSpec()
		q.Preds[0].Right.Sub.Where.Op = op
		admit := admission(t, q)
		ties := 0
		for seed := int64(1); seed <= seeds; seed++ {
			ex, err := New(q)
			if err != nil {
				t.Fatal(err)
			}
			naive := NewNaive(q)
			for i, e := range inexactTrace(seed, 400) {
				if err := admit(e); err != nil {
					t.Fatalf("%s seed %d event %d: refused: %v", op, seed, i, err)
				}
				ex.Apply(e)
				naive.Apply(e)
				if exactTie(naive.live, op) {
					ties++
					continue
				}
				// almostEqual, but relative to the live terms' magnitude as
				// well: a suffix read is the total minus a prefix, so a
				// result that cancels to about 0 keeps the total's rounding.
				var scale float64
				for _, t := range naive.live {
					scale += math.Abs(q.Agg.Eval(t))
				}
				if got, want := ex.Result(), naive.Result(); !almostEqual(got, want) && math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("%s seed %d event %d: engine %v, naive %v", op, seed, i, got, want)
				}
			}
		}
		t.Logf("%s: %d of %d results skipped at an exact threshold tie", op, ties, seeds*400)
	}
}

// exactTie reports whether, over live rows with volumes k/10, some price
// level's correlated volume sum (over the levels whose price compares op to
// its own) equals 0.75 times the total volume in exact arithmetic:
// 4·Σk == 3·Σk_all.
func exactTie(live []query.Tuple, op query.CmpOp) bool {
	tenths := map[float64]int{}
	total := 0
	for _, t := range live {
		k := int(math.Round(10 * t["volume"]))
		tenths[t["price"]] += k
		total += k
	}
	for p := range tenths {
		sum := 0
		for q, k := range tenths {
			if op.Compare(q, p) {
				sum += k
			}
		}
		if 4*sum == 3*total {
			return true
		}
	}
	return false
}

// admission is Prepared.Admit on map events: q bound to its own columns,
// each event laid out as a row first.
func admission(t *testing.T, q *query.Query) func(Event) error {
	t.Helper()
	p, err := prepareOwn(q)
	if err != nil {
		t.Fatal(err)
	}
	return func(e Event) error {
		var scratch *Rows
		return p.Admit(edgeRows(p.schema, &scratch, []Event{e}).At(0))
	}
}

// TestAdmissionRefusesNonFiniteColumnKey: a column predicate's level tree is
// keyed by the compared column, and the tree refuses a non-finite key by
// panicking, so admission must refuse it first — here on a query whose term
// does not read the column, so only the key check can catch it.
func TestAdmissionRefusesNonFiniteColumnKey(t *testing.T) {
	q := columnSpec()
	q.Agg = query.Col("volume")
	admit := admission(t, q)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := admit(Insert(query.Tuple{"price": bad, "volume": 1})); !errors.Is(err, ErrBadEvent) {
			t.Errorf("price %v: admission error %v, want ErrBadEvent", bad, err)
		}
	}
	if err := admit(Insert(query.Tuple{"price": 3.5, "volume": 1})); err != nil {
		t.Errorf("finite price refused: %v", err)
	}
}

// TestAdmissionRefusesNonFiniteLevelKey: the general algorithm keys a level
// tree by each correlated subquery's inner expression (2*price under SQ2)
// and by each nested ordering column (NQ1's price), and the tree refuses a
// non-finite key by panicking, so admission must refuse it first — here on
// queries whose term does not read price, so only the key check can catch
// it.
func TestAdmissionRefusesNonFiniteLevelKey(t *testing.T) {
	for name, q := range map[string]*query.Query{"sq2": sq2Spec(), "nq1": nq1Spec()} {
		q.Agg = query.Col("volume")
		admit := admission(t, q)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := admit(Insert(query.Tuple{"price": bad, "volume": 1})); !errors.Is(err, ErrBadEvent) {
				t.Errorf("%s: price %v: admission error %v, want ErrBadEvent", name, bad, err)
			}
		}
		if err := admit(Insert(query.Tuple{"price": 3.5, "volume": 1})); err != nil {
			t.Errorf("%s: finite price refused: %v", name, err)
		}
	}
}
