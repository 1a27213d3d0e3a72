package engine

import (
	"strings"
	"testing"

	"rpai/internal/query"
)

// TestDescribe pins the EXPLAIN surface for the canonical query shapes: the
// strategy must match the constructed executor, the index kind must name the
// representation actually backing it, and the predicate signature must mask
// constants (so structurally identical queries with different thresholds
// share a signature).
func TestDescribe(t *testing.T) {
	cases := []struct {
		name     string
		q        *query.Query
		strategy string
		kind     string
		keyCol   string
	}{
		{"vwap-le", vwapSpec(), "relstate", "rpai-arena", "price"},
		{"column-level-tree", columnSpec(), "relstate", "level-tree", "price"},
		{"eq1-pai", eq1Spec(), "aggindex", "pai", "a"},
		{"nested-general", nq1Spec(), "general", "", ""},
		{"two-pred-general", twoPredSpec(), "general", "", ""},
		{"grouped-general", groupedVWAPSpec(), "general", "", ""},
	}
	for _, tc := range cases {
		pl, err := Describe(tc.q)
		if err != nil {
			t.Fatalf("%s: Describe: %v", tc.name, err)
		}
		if pl.Strategy != tc.strategy || pl.IndexKind != tc.kind || pl.KeyCol != tc.keyCol {
			t.Errorf("%s: got strategy=%q kind=%q key=%q, want %q/%q/%q",
				tc.name, pl.Strategy, pl.IndexKind, pl.KeyCol, tc.strategy, tc.kind, tc.keyCol)
		}
		ex, err := New(tc.q)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		if pl.Strategy != ex.Strategy() {
			t.Errorf("%s: Describe strategy %q disagrees with executor %q", tc.name, pl.Strategy, ex.Strategy())
		}
		if len(pl.Predicates) != len(tc.q.Preds) {
			t.Errorf("%s: %d predicates rendered, want %d", tc.name, len(pl.Predicates), len(tc.q.Preds))
		}
		if strings.Contains(pl.PredSig, "0.75") || strings.Contains(pl.PredSig, "0.5") {
			t.Errorf("%s: PredSig leaks constants: %s", tc.name, pl.PredSig)
		}
	}
}

// TestPredSigMasksConstants: two structurally identical queries differing
// only in threshold constants share a signature; a structural change (Le vs
// Eq correlation) does not.
func TestPredSigMasksConstants(t *testing.T) {
	a := vwapSpec()
	b := vwapSpec()
	b.Preds[0].Left.Scale = 0.9
	if PredSig(a) != PredSig(b) {
		t.Errorf("signatures differ across constants:\n a %s\n b %s", PredSig(a), PredSig(b))
	}
	if PredSig(a) == PredSig(eq1Spec()) {
		t.Errorf("structurally different queries share a signature: %s", PredSig(a))
	}
	if qa, qb := a.String(), b.String(); qa == qb {
		t.Errorf("canonical strings should differ across constants: %s", qa)
	}
}

// TestPredSigDeterministic pins the normalization rules documented on
// PredSig: flipped comparison spellings, reordered AND conjuncts and
// reordered subquery filters all mask to the same signature, while genuine
// structural changes do not.
func TestPredSigDeterministic(t *testing.T) {
	sub := func() *query.Subquery {
		return &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}
	}
	cases := []struct {
		name string
		a, b *query.Query
		same bool
	}{
		{
			// a < ? vs ? > a: direction-flipped spellings of one predicate.
			name: "flipped-direction",
			a: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Lt, Right: query.ValSub(0.75, sub()),
			}}},
			b: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValSub(0.9, sub()), Op: query.Gt, Right: query.ValExpr(query.Col("price")),
			}}},
			same: true,
		},
		{
			// Ge flips to Le the same way.
			name: "flipped-ge",
			a: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Le, Right: query.ValSub(0.75, sub()),
			}}},
			b: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValSub(0.9, sub()), Op: query.Ge, Right: query.ValExpr(query.Col("price")),
			}}},
			same: true,
		},
		{
			// Symmetric Eq: operand order does not matter.
			name: "eq-operand-order",
			a: &query.Query{Agg: query.Col("a"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("a")), Op: query.Eq, Right: query.ValSub(0.5, sub()),
			}}},
			b: &query.Query{Agg: query.Col("a"), Preds: []query.Predicate{{
				Left: query.ValSub(0.5, sub()), Op: query.Eq, Right: query.ValExpr(query.Col("a")),
			}}},
			same: true,
		},
		{
			// Reordered top-level AND conjuncts.
			name: "conjunct-order",
			a: &query.Query{Agg: query.Col("a"), Preds: []query.Predicate{
				{Left: query.ValExpr(query.Col("a")), Op: query.Lt, Right: query.ValExpr(query.Const(1))},
				{Left: query.ValExpr(query.Col("b")), Op: query.Lt, Right: query.ValExpr(query.Const(2))},
			}},
			b: &query.Query{Agg: query.Col("a"), Preds: []query.Predicate{
				{Left: query.ValExpr(query.Col("b")), Op: query.Lt, Right: query.ValExpr(query.Const(3))},
				{Left: query.ValExpr(query.Col("a")), Op: query.Lt, Right: query.ValExpr(query.Const(4))},
			}},
			same: true,
		},
		{
			// Reordered subquery filter conjuncts.
			name: "filter-order",
			a: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Lt,
				Right: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume"), Filters: []query.FilterPred{
					{Inner: query.Col("volume"), Op: query.Gt, Value: 1},
					{Inner: query.Col("price"), Op: query.Lt, Value: 2},
				}}),
			}}},
			b: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Lt,
				Right: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume"), Filters: []query.FilterPred{
					{Inner: query.Col("price"), Op: query.Lt, Value: 3},
					{Inner: query.Col("volume"), Op: query.Gt, Value: 4},
				}}),
			}}},
			same: true,
		},
		{
			// Lt vs Le is a structural difference, not a spelling.
			name: "lt-vs-le",
			a: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Lt, Right: query.ValSub(0.75, sub()),
			}}},
			b: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Le, Right: query.ValSub(0.75, sub()),
			}}},
			same: false,
		},
		{
			// Different compared column: structural.
			name: "different-column",
			a: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("price")), Op: query.Lt, Right: query.ValSub(0.75, sub()),
			}}},
			b: &query.Query{Agg: query.Col("price"), Preds: []query.Predicate{{
				Left: query.ValExpr(query.Col("volume")), Op: query.Lt, Right: query.ValSub(0.75, sub()),
			}}},
			same: false,
		},
	}
	for _, tc := range cases {
		sa, sb := PredSig(tc.a), PredSig(tc.b)
		if (sa == sb) != tc.same {
			t.Errorf("%s: PredSig(a)==PredSig(b) = %v, want %v\n a %s\n b %s",
				tc.name, sa == sb, tc.same, sa, sb)
		}
	}
}

// columnSpec is a column-vs-aggregate predicate (the predColumn shape):
// SUM(price*volume) WHERE price < 0.5 * SUM(volume).
func columnSpec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left:  query.ValExpr(query.Col("price")),
			Op:    query.Lt,
			Right: query.ValSub(0.5, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
		}},
	}
}
