package engine

import (
	"math/rand"
	"testing"

	"rpai/internal/query"
)

// randomQuery generates a random query in the supported single-relation
// fragment: 1-2 conjunctive predicates, each side a constant, a column, or a
// scaled (un)correlated subquery with a random aggregate kind, comparison
// and optional inner filters. Together with checkAgainstNaive this is a
// property test over the whole query space the engine claims to support.
func randomQuery(rng *rand.Rand) *query.Query {
	cols := []string{"price", "volume"}
	col := func() query.Col { return query.Col(cols[rng.Intn(len(cols))]) }
	ops := []query.CmpOp{query.Lt, query.Le, query.Eq, query.Ge, query.Gt}
	kinds := []query.AggKind{query.Sum, query.Count, query.Avg}

	expr := func() query.Expr {
		switch rng.Intn(4) {
		case 0:
			return col()
		case 1:
			return query.Mul(col(), col())
		case 2:
			return query.BinOp{Op: query.OpAdd, L: col(), R: query.Const(float64(rng.Intn(5)))}
		default:
			return query.Const(float64(rng.Intn(50) + 1))
		}
	}
	subquery := func(correlated bool) *query.Subquery {
		s := &query.Subquery{Kind: kinds[rng.Intn(len(kinds))]}
		if s.Kind != query.Count || rng.Intn(2) == 0 {
			s.Of = col()
		}
		if s.Kind != query.Count && s.Of == nil {
			s.Of = col()
		}
		if correlated {
			s.Where = &query.CorrPred{Inner: col(), Op: ops[rng.Intn(len(ops))], Outer: col()}
		}
		if rng.Intn(3) == 0 {
			s.Filters = append(s.Filters, query.FilterPred{
				Inner: col(),
				Op:    ops[rng.Intn(len(ops))],
				Value: float64(rng.Intn(20) + 1),
			})
		}
		return s
	}
	value := func() query.Value {
		switch rng.Intn(4) {
		case 0:
			return query.ValExpr(expr())
		case 1:
			return query.ValSub([]float64{0.25, 0.5, 1, 2}[rng.Intn(4)], subquery(false))
		default:
			return query.ValSub([]float64{0.25, 0.5, 1}[rng.Intn(3)], subquery(true))
		}
	}
	q := &query.Query{Agg: expr()}
	for i := 0; i < 1+rng.Intn(2); i++ {
		q.Preds = append(q.Preds, query.Predicate{Left: value(), Op: ops[rng.Intn(len(ops))], Right: value()})
	}
	if rng.Intn(3) == 0 {
		q.GroupBy = []string{"price"}
	}
	return q
}

// TestRandomQueriesGeneralVsNaive fuzzes the general algorithm over random
// query shapes: for each generated query, the incremental result must match
// naive re-evaluation after every event.
func TestRandomQueriesGeneralVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	queriesTried := 0
	for queriesTried < 60 {
		q := randomQuery(rng)
		if q.Validate() != nil {
			continue
		}
		queriesTried++
		g, err := NewGeneral(q)
		if err != nil {
			t.Fatalf("NewGeneral(%s): %v", q, err)
		}
		naive := NewNaive(q)
		for i, e := range priceVolumeEvents(int64(queriesTried), 120, 0.25) {
			g.Apply(e)
			naive.Apply(e)
			if got, want := g.Result(), naive.Result(); !almostEqual(got, want) {
				t.Fatalf("query %q diverged at event %d: %v vs %v", q, i, got, want)
			}
		}
	}
}

// TestRandomQueriesPlannedVsNaive does the same through the planner, so
// queries that happen to match the aggregate-index pattern exercise that
// path too.
func TestRandomQueriesPlannedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	tried, aggPlanned, colPlanned := 0, 0, 0
	for tried < 80 {
		q := randomQuery(rng)
		if rng.Intn(3) == 0 {
			q = randomEligibleQuery(rng)
		}
		if q.Validate() != nil {
			continue
		}
		// The aggregate-index path requires positive inner contributions;
		// the random workload's volumes/prices are positive, but a SUM over
		// a column product can be fine too. Column values are >= 1, so any
		// Of expression built from them is positive except "price - c" style
		// (not generated). Safe to run.
		tried++
		ex, err := New(q)
		if err != nil {
			t.Fatalf("New(%s): %v", q, err)
		}
		if ex.Strategy() == "aggindex" {
			aggPlanned++
		}
		if r, ok := ex.(*relStateExec); ok && r.rs.b.plan.kind == predColumn {
			colPlanned++
		}
		naive := NewNaive(q)
		for i, e := range priceVolumeEvents(int64(1000+tried), 120, 0.25) {
			ex.Apply(e)
			naive.Apply(e)
			if got, want := ex.Result(), naive.Result(); !almostEqual(got, want) {
				t.Fatalf("query %q (%s) diverged at event %d: %v vs %v", q, ex.Strategy(), i, got, want)
			}
		}
	}
	if aggPlanned == 0 {
		t.Fatal("random generation never produced an aggregate-index-eligible query; widen the generator")
	}
	if colPlanned == 0 {
		t.Fatal("random generation never produced a column predicate on the relation state; widen the generator")
	}
}

// randomEligibleQuery generates queries inside the aggregate-index pattern:
// one predicate with an uncorrelated threshold side. The other side is, in
// two queries of three, a symmetric same-column correlation (every
// orientation the unified planner accepts) and otherwise a plain column — the
// relation state's column predicate, col θ literal or col θ s·SUM/COUNT(...)
// under each of the four inequalities. The orientation and column draws come
// after the draws the committed fuzz corpora were recorded with, so a corpus
// input keeps its threshold, its θ and its choice between = and an
// inequality correlation.
func randomEligibleQuery(rng *rand.Rand) *query.Query {
	cols := []string{"price", "volume"}
	keyCol := query.Col(cols[rng.Intn(len(cols))])
	kinds := []query.AggKind{query.Sum, query.Count}
	thetaOps := []query.CmpOp{query.Lt, query.Le, query.Ge, query.Gt, query.Eq}
	corr := &query.Subquery{
		Kind:  kinds[rng.Intn(2)],
		Where: &query.CorrPred{Inner: keyCol, Op: []query.CmpOp{query.Eq, query.Le}[rng.Intn(2)], Outer: keyCol},
	}
	if corr.Kind == query.Sum {
		corr.Of = query.Col("volume") // positive weights
	}
	var thr query.Value
	if rng.Intn(2) == 0 {
		thr = query.ValSub([]float64{0.25, 0.5, 0.75}[rng.Intn(3)],
			&query.Subquery{Kind: query.Sum, Of: query.Col("volume")})
	} else {
		thr = query.ValExpr(query.Const(float64(rng.Intn(200) + 1)))
	}
	theta := thetaOps[rng.Intn(len(thetaOps))]
	thrFirst := rng.Intn(2) == 0
	if corr.Where.Op == query.Le {
		corr.Where.Op = []query.CmpOp{query.Le, query.Lt, query.Ge, query.Gt}[rng.Intn(4)]
	}
	keyed := query.ValSub(1, corr)
	if rng.Intn(3) == 1 {
		keyed = query.ValExpr(keyCol)
		switch rng.Intn(3) {
		case 0:
			thr = query.ValSub([]float64{0.01, 0.05, 0.1}[rng.Intn(3)],
				&query.Subquery{Kind: query.Sum, Of: query.Col("volume")})
		case 1:
			thr = query.ValSub([]float64{0.1, 0.25, 0.5}[rng.Intn(3)], &query.Subquery{Kind: query.Count})
		default:
			thr = query.ValExpr(query.Const(float64(rng.Intn(40) + 1)))
		}
		theta = thetaOps[rng.Intn(4)]
	}
	q := &query.Query{Agg: query.Mul(query.Col("price"), query.Col("volume"))}
	if thrFirst {
		q.Preds = []query.Predicate{{Left: thr, Op: theta, Right: keyed}}
	} else {
		q.Preds = []query.Predicate{{Left: keyed, Op: theta, Right: thr}}
	}
	return q
}
