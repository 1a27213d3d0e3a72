package engine

import (
	"math"
	"math/rand"
	"testing"

	"rpai/internal/queries"
	"rpai/internal/query"
	"rpai/internal/stream"
)

// mstSpec is the MST query (package queries) in multi-relation form:
// SUM(a.price*a.volume - b.price*b.volume) over bids x asks with each side's
// top-of-book predicate.
func mstSpec() *MultiQuery {
	side := func(rel string, sign float64) RelSpec {
		return RelSpec{
			Name: rel,
			Term: query.Mul(query.Const(sign), query.Mul(query.Col("price"), query.Col("volume"))),
			Pred: query.Predicate{
				Left: query.ValSub(0.25, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
				Op:   query.Gt,
				Right: query.ValSub(1, &query.Subquery{
					Kind:  query.Sum,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Gt, Outer: query.Col("price")},
				}),
			},
		}
	}
	return &MultiQuery{Combine: query.OpAdd, Rels: []RelSpec{side("asks", 1), side("bids", -1)}}
}

// pspSpec is PSP: SUM(a.price - b.price) with volume-threshold predicates.
func pspSpec() *MultiQuery {
	side := func(rel string, sign float64) RelSpec {
		return RelSpec{
			Name: rel,
			Term: query.Mul(query.Const(sign), query.Col("price")),
			Pred: query.Predicate{
				Left:  query.ValExpr(query.Col("volume")),
				Op:    query.Gt,
				Right: query.ValSub(0.0001, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			},
		}
	}
	return &MultiQuery{Combine: query.OpAdd, Rels: []RelSpec{side("asks", 1), side("bids", -1)}}
}

func multiEvents(seed int64, n int, deleteRatio float64) []MultiEvent {
	rng := rand.New(rand.NewSource(seed))
	live := map[string][]query.Tuple{}
	rels := []string{"bids", "asks"}
	var out []MultiEvent
	for i := 0; i < n; i++ {
		rel := rels[rng.Intn(2)]
		if l := live[rel]; len(l) > 0 && rng.Float64() < deleteRatio {
			j := rng.Intn(len(l))
			out = append(out, MultiEvent{Rel: rel, X: -1, Tuple: l[j]})
			l[j] = l[len(l)-1]
			live[rel] = l[:len(l)-1]
			continue
		}
		tu := query.Tuple{
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
		}
		live[rel] = append(live[rel], tu)
		out = append(out, MultiEvent{Rel: rel, X: 1, Tuple: tu})
	}
	return out
}

func checkMultiAgainstNaive(t *testing.T, q *MultiQuery, seed int64, n int) {
	t.Helper()
	incr, err := NewMultiAggIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewMultiNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range multiEvents(seed, n, 0.2) {
		incr.Apply(e)
		naive.Apply(e)
		if got, want := incr.Result(), naive.Result(); !almostEqual(got, want) {
			t.Fatalf("seed %d event %d: %v vs %v", seed, i, got, want)
		}
	}
}

func TestMultiMSTAgreesWithNaive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkMultiAgainstNaive(t, mstSpec(), seed, 400)
	}
}

func TestMultiPSPAgreesWithNaive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkMultiAgainstNaive(t, pspSpec(), seed, 400)
	}
}

// TestMultiMSTMatchesHandCoded replays order-book traces through the generic
// multi-relation executor and the hand-written MST/PSP executors of package
// queries. For MST this is the independent reference for the range-shift
// executor: the hand-written side keeps two single-lane pointer RPAI trees
// keyed by running volume sums and shifts them per event, where the generic
// side reads those sums off its level tree. On the integer trace every sum is
// exact and the results must be bit-identical after every event. The second
// trace has 0.1-multiple prices (inexact, so the price*volume terms round and
// their summation order shows in the bits — the level tree and the RPAI add
// them in different orders) and 0.25-multiple volumes (exact, as the
// hand-written index keys require); there the results must agree within
// almostEqual.
func TestMultiMSTMatchesHandCoded(t *testing.T) {
	cfg := stream.DefaultOrderBook(800)
	cfg.BothSides = true
	cfg.DeleteRatio = 0.15
	cfg.PriceLevels = 40
	integer := stream.GenerateOrderBook(cfg)
	fractional := make([]stream.Event, len(integer))
	for i, e := range integer {
		e.Rec.Price = 0.1 * (e.Rec.Price - cfg.BasePrice + 1)
		e.Rec.Volume = 0.25 * e.Rec.Volume
		fractional[i] = e
	}
	for _, trace := range []struct {
		name   string
		events []stream.Event
	}{{"integer", integer}, {"fractional", fractional}} {
		for _, tc := range []struct {
			spec *MultiQuery
			name string
		}{
			{mstSpec(), "mst"},
			{pspSpec(), "psp"},
		} {
			generic, err := NewMultiAggIndex(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			hand := queries.NewBids(tc.name, queries.RPAI)
			for i, e := range trace.events {
				rel := "bids"
				if e.Side == stream.Asks {
					rel = "asks"
				}
				generic.Apply(MultiEvent{
					Rel:   rel,
					X:     e.X(),
					Tuple: query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume},
				})
				hand.Apply(e)
				got, want := generic.Result(), hand.Result()
				if trace.name == "integer" && math.Float64bits(got) != math.Float64bits(want) || !almostEqual(got, want) {
					t.Fatalf("%s trace, %s event %d: generic %v vs hand-coded %v", trace.name, tc.name, i, got, want)
				}
			}
		}
	}
}

// TestMultiProductCombine covers Combine == OpMul with mixed orientations:
// one <= correlated side, one >= correlated side.
func TestMultiProductCombine(t *testing.T) {
	mk := func(rel string, op query.CmpOp, theta query.CmpOp) RelSpec {
		return RelSpec{
			Name: rel,
			Term: query.Col("volume"),
			Pred: query.Predicate{
				Left: query.ValSub(0.5, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
				Op:   theta,
				Right: query.ValSub(1, &query.Subquery{
					Kind:  query.Sum,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("price"), Op: op, Outer: query.Col("price")},
				}),
			},
		}
	}
	q := &MultiQuery{Combine: query.OpMul, Rels: []RelSpec{
		mk("bids", query.Le, query.Lt),
		mk("asks", query.Ge, query.Le),
	}}
	for seed := int64(1); seed <= 3; seed++ {
		checkMultiAgainstNaive(t, q, seed, 350)
	}
}

// TestMultiStrictOrientations covers the strict < and > correlation
// operators (fresh-level inclusive shifts).
func TestMultiStrictOrientations(t *testing.T) {
	mk := func(rel string, op query.CmpOp) RelSpec {
		return RelSpec{
			Name: rel,
			Term: query.Mul(query.Col("price"), query.Col("volume")),
			Pred: query.Predicate{
				Left: query.ValSub(0.3, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
				Op:   query.Lt,
				Right: query.ValSub(1, &query.Subquery{
					Kind:  query.Sum,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("price"), Op: op, Outer: query.Col("price")},
				}),
			},
		}
	}
	q := &MultiQuery{Combine: query.OpAdd, Rels: []RelSpec{
		mk("bids", query.Lt),
		mk("asks", query.Gt),
	}}
	for seed := int64(1); seed <= 3; seed++ {
		checkMultiAgainstNaive(t, q, seed, 350)
	}
}

// TestMultiCountCorrelation uses COUNT subqueries (weight 1 per tuple).
func TestMultiCountCorrelation(t *testing.T) {
	mk := func(rel string) RelSpec {
		return RelSpec{
			Name: rel,
			Term: query.Col("volume"),
			Pred: query.Predicate{
				Left: query.ValSub(0.5, &query.Subquery{Kind: query.Count}),
				Op:   query.Ge,
				Right: query.ValSub(1, &query.Subquery{
					Kind:  query.Count,
					Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
				}),
			},
		}
	}
	q := &MultiQuery{Combine: query.OpAdd, Rels: []RelSpec{mk("bids"), mk("asks")}}
	for seed := int64(1); seed <= 3; seed++ {
		checkMultiAgainstNaive(t, q, seed, 300)
	}
}

func TestMultiValidation(t *testing.T) {
	bad := mstSpec()
	bad.Combine = '?'
	if err := bad.Validate(); err == nil {
		t.Fatal("bad combine accepted")
	}
	dup := mstSpec()
	dup.Rels[1].Name = dup.Rels[0].Name
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	empty := &MultiQuery{Combine: query.OpAdd}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty relation list accepted")
	}
	asym := mstSpec()
	asym.Rels[0].Pred.Right.Sub.Where.Inner = query.BinOp{Op: query.OpMul, L: query.Const(2), R: query.Col("price")}
	if err := asym.Validate(); err == nil {
		t.Fatal("asymmetric correlation accepted")
	}
	if _, err := NewMultiAggIndex(asym); err == nil {
		t.Fatal("NewMultiAggIndex accepted an invalid query")
	}
}

func TestMultiUnknownRelationPanics(t *testing.T) {
	ex, err := NewMultiAggIndex(pspSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown relation")
		}
	}()
	ex.Apply(MultiEvent{Rel: "nope", X: 1, Tuple: query.Tuple{}})
}
