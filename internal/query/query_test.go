package query

import (
	"reflect"
	"testing"
)

func corrSub(op CmpOp) *Subquery {
	return &Subquery{
		Kind:  Sum,
		Of:    Col("volume"),
		Where: &CorrPred{Inner: Col("price"), Op: op, Outer: Col("price")},
	}
}

func uncorrSub() *Subquery { return &Subquery{Kind: Sum, Of: Col("volume")} }

func vwapQuery() *Query {
	return &Query{
		Agg: Mul(Col("price"), Col("volume")),
		Preds: []Predicate{{
			Left:  ValSub(0.75, uncorrSub()),
			Op:    Lt,
			Right: ValSub(1, corrSub(Le)),
		}},
	}
}

func TestCmpOpCompare(t *testing.T) {
	cases := []struct {
		op      CmpOp
		l, r    float64
		want    bool
		spelled string
	}{
		{Lt, 1, 2, true, "<"},
		{Lt, 2, 2, false, "<"},
		{Le, 2, 2, true, "<="},
		{Eq, 3, 3, true, "="},
		{Eq, 3, 4, false, "="},
		{Ge, 3, 3, true, ">="},
		{Gt, 3, 3, false, ">"},
		{Gt, 4, 3, true, ">"},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.l, c.r); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
		if c.op.String() != c.spelled {
			t.Errorf("String(%d) = %s", c.op, c.op)
		}
	}
}

func TestCmpOpFlip(t *testing.T) {
	vals := []float64{1, 2, 3}
	for _, op := range []CmpOp{Lt, Le, Eq, Ge, Gt} {
		for _, l := range vals {
			for _, r := range vals {
				if op.Compare(l, r) != op.Flip().Compare(r, l) {
					t.Fatalf("flip law broken for %s at (%v,%v)", op, l, r)
				}
			}
		}
	}
}

func TestExprEval(t *testing.T) {
	tu := Tuple{"price": 10, "volume": 3}
	if got := Const(5).Eval(tu); got != 5 {
		t.Fatalf("Const = %v", got)
	}
	if got := Col("price").Eval(tu); got != 10 {
		t.Fatalf("Col = %v", got)
	}
	cases := []struct {
		op   byte
		want float64
	}{
		{OpAdd, 13}, {OpSub, 7}, {OpMul, 30}, {OpDiv, 10.0 / 3},
	}
	for _, c := range cases {
		e := BinOp{c.op, Col("price"), Col("volume")}
		if got := e.Eval(tu); got != c.want {
			t.Errorf("op %c = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestExprCols(t *testing.T) {
	e := Mul(Col("price"), BinOp{OpAdd, Col("volume"), Const(1)})
	got := e.Cols()
	want := []string{"price", "volume"}
	if !reflect.DeepEqual(dedup(got), want) {
		t.Fatalf("Cols = %v", got)
	}
	if Const(1).Cols() != nil {
		t.Fatal("Const has cols")
	}
}

func TestFreeBoundAnalysis(t *testing.T) {
	s := corrSub(Le)
	if got := s.Free(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("Free = %v", got)
	}
	if got := s.Bound(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("Bound = %v", got)
	}
	if !s.Correlated() {
		t.Fatal("correlated subquery not detected")
	}
	u := uncorrSub()
	if u.Free() != nil || u.Bound() != nil || u.Correlated() {
		t.Fatal("uncorrelated subquery misanalyzed")
	}
	// Uncorrelated filter: outer side is a constant.
	f := &Subquery{Kind: Sum, Of: Col("volume"),
		Where: &CorrPred{Inner: Col("price"), Op: Gt, Outer: Const(100)}}
	if f.Correlated() {
		t.Fatal("constant-filtered subquery reported correlated")
	}
	if got := f.Bound(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("Bound = %v", got)
	}
}

func TestExtractPredValuesAndOuterCols(t *testing.T) {
	q := vwapQuery()
	vals := q.ExtractPredValues()
	if len(vals) != 2 {
		t.Fatalf("values = %d", len(vals))
	}
	if vals[0].Sub == nil || vals[0].Sub.Correlated() {
		t.Fatal("left value should be the uncorrelated subquery")
	}
	if vals[1].Sub == nil || !vals[1].Sub.Correlated() {
		t.Fatal("right value should be the correlated subquery")
	}
	if got := q.OuterCols(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("OuterCols = %v", got)
	}
	if subs := q.Subqueries(); len(subs) != 2 {
		t.Fatalf("Subqueries = %d", len(subs))
	}
}

// TestValidateStreamability pins that every aggregate kind of the grammar
// validates as an outer and as a subquery aggregate (each is maintainable
// under deletions; MIN and MAX have no kind), and that a COUNT query over a
// term other than the constant 1 is refused.
func TestValidateStreamability(t *testing.T) {
	if err := vwapQuery().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []AggKind{Sum, Count, Avg} {
		q := vwapQuery()
		q.Outer = k
		if k == Count {
			q.Agg = Const(1)
		}
		q.Preds[0].Left.Sub.Kind = k
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	bad := vwapQuery()
	bad.Outer = Count
	if err := bad.Validate(); err == nil {
		t.Fatal("COUNT over a non-constant term passed validation")
	}
}

func TestPlanAggIndexEligible(t *testing.T) {
	plan, ok := vwapQuery().PlanAggIndex()
	if !ok {
		t.Fatal("VWAP shape not recognized")
	}
	if plan.KeyCol != "price" || plan.SubOp != Le || plan.CorrOnLeft {
		t.Fatalf("plan = %+v", plan)
	}
	// Correlated side on the left: operator must flip.
	q := &Query{
		Agg: Col("volume"),
		Preds: []Predicate{{
			Left:  ValSub(1, corrSub(Le)),
			Op:    Gt,
			Right: ValSub(0.75, uncorrSub()),
		}},
	}
	plan, ok = q.PlanAggIndex()
	if !ok {
		t.Fatal("left-correlated shape not recognized")
	}
	if !plan.CorrOnLeft || plan.ThetaCorrFirst != Gt {
		t.Fatalf("plan = %+v", plan)
	}
	// Equality correlation -> PAI plan.
	eq := &Query{
		Agg: Col("volume"),
		Preds: []Predicate{{
			Left:  ValSub(0.5, uncorrSub()),
			Op:    Eq,
			Right: ValSub(1, corrSub(Eq)),
		}},
	}
	if plan, ok := eq.PlanAggIndex(); !ok || plan.SubOp != Eq {
		t.Fatalf("equality plan = %+v, ok=%v", plan, ok)
	}
}

func TestPlanAggIndexRejections(t *testing.T) {
	base := vwapQuery()

	twoPreds := &Query{Agg: base.Agg, Preds: append(base.Preds, base.Preds[0])}
	if _, ok := twoPreds.PlanAggIndex(); ok {
		t.Fatal("accepted two predicates")
	}

	scaled := vwapQuery()
	scaled.Preds[0].Right.Scale = 2 // scaled correlated side
	if _, ok := scaled.PlanAggIndex(); ok {
		t.Fatal("accepted scaled correlated subquery")
	}

	asym := vwapQuery()
	asym.Preds[0].Right.Sub.Where.Inner = BinOp{OpMul, Const(2), Col("price")}
	if _, ok := asym.PlanAggIndex(); ok {
		t.Fatal("accepted asymmetric correlation")
	}

	diffCols := vwapQuery()
	diffCols.Preds[0].Right.Sub.Where.Outer = Col("volume")
	if _, ok := diffCols.PlanAggIndex(); ok {
		t.Fatal("accepted mismatched correlation columns")
	}

	bothCorr := &Query{
		Agg: base.Agg,
		Preds: []Predicate{{
			Left:  ValSub(1, corrSub(Le)),
			Op:    Lt,
			Right: ValSub(1, corrSub(Le)),
		}},
	}
	if _, ok := bothCorr.PlanAggIndex(); ok {
		t.Fatal("accepted correlation on both sides")
	}

	avgCorr := vwapQuery()
	avgCorr.Preds[0].Right.Sub.Kind = Avg
	if _, ok := avgCorr.PlanAggIndex(); ok {
		t.Fatal("accepted AVG correlated subquery (not shift-maintainable)")
	}

	geCorr := vwapQuery()
	geCorr.Preds[0].Right.Sub.Where.Op = Ge
	if _, ok := geCorr.PlanAggIndex(); ok {
		t.Fatal("accepted >= correlation (only = and <= are planned)")
	}
}

func TestStringRendering(t *testing.T) {
	q := vwapQuery()
	want := "SELECT SUM((price * volume)) FROM R WHERE 0.75 * (SELECT SUM(volume) FROM R) < (SELECT SUM(volume) FROM R WHERE price <= price)"
	if got := q.String(); got != want {
		t.Fatalf("String =\n%s\nwant\n%s", got, want)
	}
	c := &Subquery{Kind: Count}
	if got := c.String(); got != "(SELECT COUNT(*) FROM R)" {
		t.Fatalf("COUNT rendering = %s", got)
	}
	v := ValSub(1, uncorrSub())
	if got := v.String(); got != "(SELECT SUM(volume) FROM R)" {
		t.Fatalf("scale-1 rendering = %s", got)
	}
}

func TestDedup(t *testing.T) {
	if got := dedup([]string{"b", "a", "b", "a", "c"}); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("dedup = %v", got)
	}
	if got := dedup(nil); got != nil {
		t.Fatalf("dedup(nil) = %v", got)
	}
}

func TestFilterPredMatchAndString(t *testing.T) {
	f := FilterPred{Inner: Col("volume"), Op: Gt, Value: 10}
	if !f.Match(Tuple{"volume": 11}) || f.Match(Tuple{"volume": 10}) {
		t.Fatal("Match broken")
	}
	if got := f.String(); got != "volume > 10" {
		t.Fatalf("String = %q", got)
	}
	s := &Subquery{Kind: Sum, Of: Col("volume"), Filters: []FilterPred{f, {Inner: Col("price"), Op: Le, Value: 5}}}
	if !s.MatchFilters(Tuple{"volume": 11, "price": 5}) {
		t.Fatal("MatchFilters rejected a passing tuple")
	}
	if s.MatchFilters(Tuple{"volume": 11, "price": 6}) {
		t.Fatal("MatchFilters accepted a failing tuple")
	}
	if got := s.String(); got != "(SELECT SUM(volume) FROM R WHERE volume > 10 AND price <= 5)" {
		t.Fatalf("subquery String = %q", got)
	}
}

func TestConstString(t *testing.T) {
	if got := Const(2.5).String(); got != "2.5" {
		t.Fatalf("Const.String = %q", got)
	}
}

func nestedSub() *Subquery {
	return &Subquery{
		Kind:  Sum,
		Of:    Col("volume"),
		Where: &CorrPred{Inner: Col("price"), Op: Le, Outer: Col("price")},
		Nested: &NestedCond{
			Threshold: ValSub(0.5, &Subquery{Kind: Sum, Of: Col("volume")}),
			Op:        Lt,
			Inner: &Subquery{
				Kind:  Sum,
				Of:    Col("volume"),
				Where: &CorrPred{Inner: Col("price"), Op: Le, Outer: Col("price")},
			},
			Col: "price",
		},
	}
}

func TestNestedCondValidation(t *testing.T) {
	q := func(s *Subquery) *Query {
		return &Query{Agg: Col("volume"), Preds: []Predicate{{
			Left:  ValSub(0.75, &Subquery{Kind: Sum, Of: Col("volume")}),
			Op:    Lt,
			Right: ValSub(1, s),
		}}}
	}
	if err := q(nestedSub()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*Subquery){
		"op":            func(s *Subquery) { s.Nested.Op = Ge },
		"kind":          func(s *Subquery) { s.Kind = Avg },
		"no corr":       func(s *Subquery) { s.Where = nil },
		"corr col":      func(s *Subquery) { s.Where.Inner = Col("volume") },
		"corr op":       func(s *Subquery) { s.Where.Op = Lt },
		"nil inner":     func(s *Subquery) { s.Nested.Inner = nil },
		"inner kind":    func(s *Subquery) { s.Nested.Inner.Kind = Count },
		"inner uncorr":  func(s *Subquery) { s.Nested.Inner.Where = nil },
		"inner corr op": func(s *Subquery) { s.Nested.Inner.Where.Op = Ge },
		"thr kind":      func(s *Subquery) { s.Nested.Threshold.Sub.Kind = Count },
		"thr corr col": func(s *Subquery) {
			s.Nested.Threshold.Sub.Where = &CorrPred{Inner: Col("volume"), Op: Le, Outer: Col("price")}
		},
		"thr non-const": func(s *Subquery) { s.Nested.Threshold = ValExpr(Col("price")) },
	}
	for name, mutate := range bad {
		s := nestedSub()
		mutate(s)
		if err := q(s).Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Valid outer-correlated threshold (NQ2) and constant threshold pass.
	s := nestedSub()
	s.Nested.Threshold = ValSub(0.5, &Subquery{
		Kind:  Sum,
		Of:    Col("volume"),
		Where: &CorrPred{Inner: Col("price"), Op: Le, Outer: Col("price")},
	})
	if err := q(s).Validate(); err != nil {
		t.Fatal(err)
	}
	s = nestedSub()
	s.Nested.Threshold = ValExpr(Const(100))
	if err := q(s).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeIncludesNestedThreshold(t *testing.T) {
	s := nestedSub()
	if got := s.Free(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("Free = %v", got)
	}
	s.Nested.Threshold = ValSub(0.5, &Subquery{
		Kind:  Sum,
		Of:    Col("volume"),
		Where: &CorrPred{Inner: Col("price"), Op: Le, Outer: Col("broker")},
	})
	got := s.Free()
	if !reflect.DeepEqual(got, []string{"broker", "price"}) {
		t.Fatalf("Free with NQ2 threshold = %v", got)
	}
}

func TestPlanAggIndexRejectsNested(t *testing.T) {
	q := &Query{Agg: Col("volume"), Preds: []Predicate{{
		Left:  ValSub(0.75, &Subquery{Kind: Sum, Of: Col("volume")}),
		Op:    Lt,
		Right: ValSub(1, nestedSub()),
	}}}
	if _, ok := q.PlanAggIndex(); ok {
		t.Fatal("nested subquery accepted")
	}
}
