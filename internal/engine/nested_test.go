package engine

import (
	"testing"

	"rpai/internal/queries"
	"rpai/internal/query"
	"rpai/internal/stream"
)

// nq1Spec is NQ1 (section 5.2.1) in the grammar: VWAP whose correlated
// subquery carries a nested condition with an uncorrelated threshold.
func nq1Spec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
				Nested: &query.NestedCond{
					Threshold: query.ValSub(0.5, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
					Op:        query.Lt,
					Inner: &query.Subquery{
						Kind:  query.Sum,
						Of:    query.Col("volume"),
						Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
					},
					Col: "price",
				},
			}),
		}},
	}
}

// nq2Spec is NQ2: the nested threshold is correlated to the outermost tuple.
func nq2Spec() *query.Query {
	q := nq1Spec()
	q.Preds[0].Right.Sub.Nested.Threshold = query.ValSub(0.5, &query.Subquery{
		Kind:  query.Sum,
		Of:    query.Col("volume"),
		Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
	})
	return q
}

func TestNestedSpecsValidate(t *testing.T) {
	if err := nq1Spec().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := nq2Spec().Validate(); err != nil {
		t.Fatal(err)
	}
	// Nested subqueries are outside the aggregate-index pattern.
	if _, ok := nq1Spec().PlanAggIndex(); ok {
		t.Fatal("nested subquery accepted by the aggregate-index planner")
	}
	ex, err := New(nq1Spec())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy() != "general" {
		t.Fatalf("planner picked %s", ex.Strategy())
	}
}

func TestNestedValidationRejections(t *testing.T) {
	mutations := map[string]func(*query.Query){
		"wrong op":            func(q *query.Query) { q.Preds[0].Right.Sub.Nested.Op = query.Le },
		"count middle":        func(q *query.Query) { q.Preds[0].Right.Sub.Kind = query.Count },
		"uncorrelated middle": func(q *query.Query) { q.Preds[0].Right.Sub.Where = nil },
		"missing inner":       func(q *query.Query) { q.Preds[0].Right.Sub.Nested.Inner = nil },
		"inner wrong col": func(q *query.Query) {
			q.Preds[0].Right.Sub.Nested.Inner.Where.Inner = query.Col("volume")
		},
		"column threshold": func(q *query.Query) {
			q.Preds[0].Right.Sub.Nested.Threshold = query.ValExpr(query.Col("price"))
		},
	}
	for name, mutate := range mutations {
		q := nq1Spec()
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNestedGeneralAgreesWithNaive(t *testing.T) {
	for _, spec := range []*query.Query{nq1Spec(), nq2Spec()} {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := NewGeneral(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstNaive(t, spec, g, seed, 150)
		}
	}
}

// TestNestedMatchesHandCodedNQ1NQ2 replays an order-book trace through the
// generic engine and the hand-written NQ1/NQ2 executors.
func TestNestedMatchesHandCodedNQ1NQ2(t *testing.T) {
	cfg := stream.DefaultOrderBook(800)
	cfg.DeleteRatio = 0.2
	cfg.PriceLevels = 40
	for _, tc := range []struct {
		spec *query.Query
		name string
	}{
		{nq1Spec(), "nq1"},
		{nq2Spec(), "nq2"},
	} {
		g, err := NewGeneral(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		hand := queries.NewBids(tc.name, queries.RPAI)
		for i, e := range stream.GenerateOrderBook(cfg) {
			g.Apply(Event{X: e.X(), Tuple: query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume}})
			hand.Apply(e)
			if got, want := g.Result(), hand.Result(); !almostEqual(got, want) {
				t.Fatalf("%s event %d: generic %v vs hand-coded %v", tc.name, i, got, want)
			}
		}
	}
}

// TestNestedWithGroupBy combines two-level nesting with grouped output.
func TestNestedWithGroupBy(t *testing.T) {
	spec := nq1Spec()
	spec.GroupBy = []string{"volume"}
	g, err := NewGeneral(spec)
	if err != nil {
		t.Fatal(err)
	}
	naive := NewNaive(spec)
	for i, e := range priceVolumeEvents(4, 150, 0.2) {
		g.Apply(e)
		naive.Apply(e)
		if !groupsEqual(g.ResultGrouped(), naive.ResultGrouped()) {
			t.Fatalf("event %d: grouped results diverge", i)
		}
	}
}

// TestNestedConstantBoundAgreesWithNaive covers a two-level subquery whose
// middle bound is a constant and whose threshold is uncorrelated, so no part
// of it reads an outer column. Its read still sums a key range of the middle
// level, so it keeps the level tree a correlated one does; without it the
// first read that found a qualifying level panicked.
func TestNestedConstantBoundAgreesWithNaive(t *testing.T) {
	q := nq1Spec()
	q.Preds[0].Left.Scale = 0.25
	q.Preds[0].Right.Sub.Where.Outer = query.Const(30)
	for seed := int64(1); seed <= 3; seed++ {
		g, err := NewGeneral(q)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, q, g, seed, 150)
	}
}
