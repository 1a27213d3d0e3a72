package sqlparse

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

const vwapSQL = `
SELECT Sum(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

const eq1SQL = `
SELECT Sum(r.A * r.B) FROM R r
WHERE 0.5 * (SELECT Sum(r1.B) FROM R r1)
    = (SELECT Sum(r2.B) FROM R r2 WHERE r2.A = r.A)`

func TestParseVWAP(t *testing.T) {
	q, err := Parse(vwapSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	p := q.Preds[0]
	if p.Op != query.Lt {
		t.Fatalf("op = %s", p.Op)
	}
	if p.Left.Sub == nil || p.Left.Scale != 0.75 || p.Left.Sub.Correlated() {
		t.Fatalf("left = %+v", p.Left)
	}
	if p.Right.Sub == nil || !p.Right.Sub.Correlated() {
		t.Fatalf("right = %+v", p.Right)
	}
	w := p.Right.Sub.Where
	if w.Op != query.Le {
		t.Fatalf("sub op = %s", w.Op)
	}
	if _, ok := w.Inner.(query.Col); !ok {
		t.Fatalf("inner = %#v", w.Inner)
	}
	// The parsed query must be recognized by the aggregate-index planner.
	plan, ok := q.PlanAggIndex()
	if !ok || plan.KeyCol != "price" {
		t.Fatalf("plan = %+v ok=%v", plan, ok)
	}
	// Aggregate expression evaluates as price*volume.
	if got := q.Agg.Eval(query.Tuple{"price": 3, "volume": 4}); got != 12 {
		t.Fatalf("agg eval = %v", got)
	}
}

func TestParseEQ1(t *testing.T) {
	q, err := Parse(eq1SQL)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.Op != query.Eq || p.Left.Scale != 0.5 {
		t.Fatalf("pred = %+v", p)
	}
	if plan, ok := q.PlanAggIndex(); !ok || plan.SubOp != query.Eq || plan.KeyCol != "A" {
		t.Fatalf("plan = %+v ok=%v", plan, ok)
	}
}

func TestParseCountStarAndMultiplePredicates(t *testing.T) {
	q, err := Parse(`
SELECT SUM(b.volume) FROM bids b
WHERE b.volume > 0.001 * (SELECT SUM(b1.volume) FROM bids b1)
AND 0.5 * (SELECT COUNT(*) FROM bids b2) <= (SELECT COUNT(*) FROM bids b3 WHERE b3.price <= b.price)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if q.Preds[0].Left.Expr == nil {
		t.Fatal("first predicate's left side should be a column expression")
	}
	sub := q.Preds[1].Right.Sub
	if sub == nil || sub.Kind != query.Count || sub.Of != nil {
		t.Fatalf("COUNT(*) subquery = %+v", sub)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q, err := Parse(`SELECT SUM(b.a + b.b * b.c - b.d / b.e) FROM t b`)
	if err != nil {
		t.Fatal(err)
	}
	tu := query.Tuple{"a": 1, "b": 2, "c": 3, "d": 8, "e": 4}
	if got := q.Agg.Eval(tu); got != 1+2*3-8.0/4 {
		t.Fatalf("eval = %v", got)
	}
	q2, err := Parse(`SELECT SUM((b.a + b.b) * b.c) FROM t b`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Agg.Eval(tu); got != (1+2)*3 {
		t.Fatalf("parenthesized eval = %v", got)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select sum(x.v) from r x where x.v > 1 * (select sum(y.v) from r y)`); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		frag string
	}{
		{"empty", "", "expected SELECT"},
		{"no from", "SELECT SUM(a.b)", "expected FROM"},
		{"top-level min", "SELECT MIN(a.b) FROM r a", "must be SUM, COUNT, or AVG"},
		{"top-level count of expr", "SELECT COUNT(a.b) FROM r a", "COUNT supports only COUNT(*)"},
		{"unqualified column", "SELECT SUM(price) FROM bids b", "alias-qualified"},
		{"wrong outer alias", "SELECT SUM(x.price) FROM bids b", `"x" does not match outer relation alias "b"`},
		{"wrong inner alias", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(b.v) FROM r b2) < b.v`, `does not match subquery alias`},
		{"trailing garbage", "SELECT SUM(b.v) FROM r b extra", "trailing input"},
		{"bad operator", "SELECT SUM(b.v) FROM r b WHERE b.v ! b.v", "comparison operator"},
		{"unterminated agg", "SELECT SUM(b.v FROM r b", "unterminated"},
		{"mixed aliases in one conjunct side", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p + b.p <= c.p) < b.v`, "mixes inner and outer columns"},
		{"two correlations in one subquery", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p <= b.p AND c.v <= b.v) < b.v`, "more than one correlation"},
		{"outer columns on both conjunct sides", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE b.p <= b.v) < b.v`, "outer columns on both sides"},
		{"unknown alias in subquery where", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE z.p <= b.p) < b.v`, "matches neither"},
	}
	for _, c := range cases {
		if _, err := Parse(c.sql); err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("not sql")
}

// TestParsedQueryExecutesCorrectly round-trips: parse the paper's VWAP SQL,
// execute it with the engine, and compare against naive evaluation of the
// same parsed AST and against a second parse (determinism).
func TestParsedQueryExecutesCorrectly(t *testing.T) {
	q := MustParse(vwapSQL)
	ex, err := engine.New(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy() != "relstate" {
		t.Fatalf("planner picked %s", ex.Strategy())
	}
	naive := engine.NewNaive(MustParse(vwapSQL))
	rng := rand.New(rand.NewSource(5))
	var live []query.Tuple
	for i := 0; i < 600; i++ {
		var ev engine.Event
		if len(live) > 0 && rng.Float64() < 0.2 {
			j := rng.Intn(len(live))
			ev = engine.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			tu := query.Tuple{"price": float64(rng.Intn(30) + 1), "volume": float64(rng.Intn(20) + 1)}
			live = append(live, tu)
			ev = engine.Insert(tu)
		}
		ex.Apply(ev)
		naive.Apply(ev)
		if got, want := ex.Result(), naive.Result(); got != want {
			t.Fatalf("event %d: %v vs %v", i, got, want)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Rendering a parsed query and re-parsing it yields the same rendering
	// (alias-free rendering uses the bare column names, so feed it a query
	// that renders with the default alias conventions).
	q1 := MustParse(vwapSQL)
	s1 := q1.String()
	if !strings.Contains(s1, "SELECT SUM((price * volume)) FROM R") {
		t.Fatalf("rendered: %s", s1)
	}
}

// TestParseSubqueryFilters covers the inner-only conjuncts of subquery WHERE
// clauses: constant comparisons (both orientations), the normalized
// expression-vs-expression form, and their combination with a correlation.
func TestParseSubqueryFilters(t *testing.T) {
	q := MustParse(`
SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1 WHERE b1.volume > 5)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price AND 10 <= b2.volume AND b2.price <= b2.volume)`)
	lhs := q.Preds[0].Left.Sub
	if lhs.Where != nil || len(lhs.Filters) != 1 {
		t.Fatalf("lhs = %+v", lhs)
	}
	if f := lhs.Filters[0]; f.Op != query.Gt || f.Value != 5 {
		t.Fatalf("lhs filter = %+v", f)
	}
	rhs := q.Preds[0].Right.Sub
	if rhs.Where == nil || rhs.Where.Op != query.Le {
		t.Fatalf("rhs correlation = %+v", rhs.Where)
	}
	if len(rhs.Filters) != 2 {
		t.Fatalf("rhs filters = %+v", rhs.Filters)
	}
	// "10 <= b2.volume" flips to volume >= 10.
	if f := rhs.Filters[0]; f.Op != query.Ge || f.Value != 10 {
		t.Fatalf("flipped filter = %+v", f)
	}
	// "b2.price <= b2.volume" normalizes to (price - volume) <= 0.
	if f := rhs.Filters[1]; f.Op != query.Le || f.Value != 0 {
		t.Fatalf("normalized filter = %+v", f)
	}
	if !rhs.MatchFilters(query.Tuple{"price": 3, "volume": 10}) {
		t.Fatal("filter rejected a passing tuple")
	}
	if rhs.MatchFilters(query.Tuple{"price": 30, "volume": 10}) {
		t.Fatal("filter accepted price > volume")
	}
	// A filtered correlated subquery falls outside the aggregate-index plan.
	if _, ok := q.PlanAggIndex(); ok {
		t.Fatal("filtered correlation accepted by the planner")
	}
}

// TestParseFilteredQueryExecutes runs a filtered query end to end: the
// general algorithm must agree with naive evaluation.
func TestParseFilteredQueryExecutes(t *testing.T) {
	q := MustParse(`
SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price AND b2.volume > 3)`)
	ex, err := engine.New(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy() != "general" {
		t.Fatalf("planner picked %s for a filtered correlation", ex.Strategy())
	}
	naive := engine.NewNaive(q)
	rng := rand.New(rand.NewSource(9))
	var live []query.Tuple
	for i := 0; i < 500; i++ {
		var ev engine.Event
		if len(live) > 0 && rng.Float64() < 0.2 {
			j := rng.Intn(len(live))
			ev = engine.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			tu := query.Tuple{"price": float64(rng.Intn(20) + 1), "volume": float64(rng.Intn(10) + 1)}
			live = append(live, tu)
			ev = engine.Insert(tu)
		}
		ex.Apply(ev)
		naive.Apply(ev)
		if got, want := ex.Result(), naive.Result(); got != want {
			t.Fatalf("event %d: %v vs %v", i, got, want)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	q := MustParse(`
SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
GROUP BY b.broker, b.venue`)
	want := []string{"broker", "venue"}
	if len(q.GroupBy) != 2 || q.GroupBy[0] != want[0] || q.GroupBy[1] != want[1] {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if !strings.Contains(q.String(), "GROUP BY broker, venue") {
		t.Fatalf("rendering: %s", q.String())
	}
	// Grouped queries route to the general algorithm and emit groups.
	ex, err := engine.New(q)
	if err != nil {
		t.Fatal(err)
	}
	ge, ok := ex.(engine.GroupedExecutor)
	if !ok {
		t.Fatal("grouped query did not produce a GroupedExecutor")
	}
	ge.Apply(engine.Insert(query.Tuple{"price": 10, "volume": 5, "broker": 3, "venue": 1}))
	if groups := ge.ResultGrouped(); len(groups) != 1 || groups[0].Key[0] != 3 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestParseGroupByErrors(t *testing.T) {
	if _, err := Parse(`SELECT SUM(b.v) FROM r b GROUP BY 1 + 2`); err == nil {
		t.Fatal("non-column GROUP BY accepted")
	}
	if _, err := Parse(`SELECT SUM(b.v) FROM r b GROUP b.x`); err == nil {
		t.Fatal("missing BY accepted")
	}
}

const nq1SQL = `
SELECT Sum(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
   < (SELECT Sum(b2.volume) FROM bids b2
      WHERE b2.price <= b.price
        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3)
            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`

const nq2SQL = `
SELECT Sum(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
   < (SELECT Sum(b2.volume) FROM bids b2
      WHERE b2.price <= b.price
        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3 WHERE b3.price <= b.price)
            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`

// TestParseNestedNQ1NQ2 parses the paper's two-level synthetic queries and
// checks the resulting AST shape.
func TestParseNestedNQ1NQ2(t *testing.T) {
	q1 := MustParse(nq1SQL)
	if err := q1.Validate(); err != nil {
		t.Fatal(err)
	}
	sub := q1.Preds[0].Right.Sub
	if sub.Nested == nil {
		t.Fatal("NQ1 nested condition missing")
	}
	if sub.Nested.Col != "price" || sub.Nested.Op != query.Lt {
		t.Fatalf("nested = %+v", sub.Nested)
	}
	if sub.Nested.Threshold.Scale != 0.5 || sub.Nested.Threshold.Sub.Where != nil {
		t.Fatalf("NQ1 threshold = %+v", sub.Nested.Threshold)
	}
	q2 := MustParse(nq2SQL)
	if err := q2.Validate(); err != nil {
		t.Fatal(err)
	}
	thr := q2.Preds[0].Right.Sub.Nested.Threshold
	if thr.Sub == nil || thr.Sub.Where == nil {
		t.Fatalf("NQ2 threshold should be outer-correlated: %+v", thr)
	}
}

// TestParsedNestedExecutesAgainstNaive runs the parsed NQ1/NQ2 through the
// engine against naive evaluation.
func TestParsedNestedExecutesAgainstNaive(t *testing.T) {
	for _, sql := range []string{nq1SQL, nq2SQL} {
		q := MustParse(sql)
		ex, err := engine.New(q)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Strategy() != "general" {
			t.Fatalf("planner picked %s", ex.Strategy())
		}
		naive := engine.NewNaive(q)
		rng := rand.New(rand.NewSource(31))
		var live []query.Tuple
		for i := 0; i < 200; i++ {
			var ev engine.Event
			if len(live) > 0 && rng.Float64() < 0.25 {
				j := rng.Intn(len(live))
				ev = engine.Delete(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				tu := query.Tuple{"price": float64(rng.Intn(15) + 1), "volume": float64(rng.Intn(10) + 1)}
				live = append(live, tu)
				ev = engine.Insert(tu)
			}
			ex.Apply(ev)
			naive.Apply(ev)
			if got, want := ex.Result(), naive.Result(); got != want {
				t.Fatalf("event %d: %v vs %v", i, got, want)
			}
		}
	}
}

func TestParseNestedErrors(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		frag string
	}{
		{"three levels", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p <= b.p
			AND 1 < (SELECT SUM(d.v) FROM r d WHERE d.p <= c.p
			AND 1 < (SELECT SUM(e.v) FROM r e WHERE e.p <= d.p))) < b.v`, "limited to two levels"},
		{"no middle correlation on either sub", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p <= b.p
			AND (SELECT SUM(d.v) FROM r d) < (SELECT SUM(e.v) FROM r e)) < b.v`, "exactly one side correlated"},
		{"two nested conditions", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p <= b.p
			AND 1 < (SELECT SUM(d.v) FROM r d WHERE d.p <= c.p)
			AND 2 < (SELECT SUM(e.v) FROM r e WHERE e.p <= c.p)) < b.v`, "more than one nested condition"},
		{"scaled innermost", `SELECT SUM(b.v) FROM r b WHERE 1 * (SELECT SUM(c.v) FROM r c WHERE c.p <= b.p
			AND 1 < 2 * (SELECT SUM(d.v) FROM r d WHERE d.p <= c.p)) < b.v`, "cannot be scaled"},
	}
	for _, c := range cases {
		if _, err := Parse(c.sql); err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
}

// TestParsePositionedErrors pins the positioned-error contract satellite:
// every malformed input yields a *ParseError whose offset lands on the
// offending token and whose message names it. These are the messages wire
// clients see in MsgRegister rejections, so they must stay descriptive.
func TestParsePositionedErrors(t *testing.T) {
	cases := []struct {
		name   string
		sql    string
		offset int    // expected ParseError.Offset
		token  string // expected ParseError.Token
		frag   string // message fragment
	}{
		{"empty input", "", 0, "", "expected SELECT"},
		{"not sql", "INSERT INTO r", 0, "INSERT", "expected SELECT"},
		{"missing from", "SELECT SUM(a.b) ", 16, "", "expected FROM"},
		{"top-level min", "SELECT MIN(a.b) FROM r a", 7, "MIN", "must be SUM, COUNT, or AVG"},
		{"subquery max", "SELECT SUM(b.v) FROM r b WHERE b.v > 1 * (SELECT max(c.v) FROM r c)", 49, "max", "MAX are not maintainable under deletions (section 4.2.5)"},
		{"top-level count of expr", "SELECT COUNT(a.b) FROM r a", 13, "a", "COUNT supports only COUNT(*)"},
		{"missing alias", "SELECT SUM(b.v) FROM r", 22, "", "expected relation alias"},
		{"bad aggregate", "SELECT TOTAL(b.v) FROM r b", 7, "TOTAL", "unknown aggregate function"},
		{"trailing garbage", "SELECT SUM(b.v) FROM r b extra", 25, "extra", "trailing input"},
		{"bad operator", "SELECT SUM(b.v) FROM r b WHERE b.v ! b.v", 35, "!", "unknown comparison operator"},
		{"missing cmp rhs", "SELECT SUM(b.v) FROM r b WHERE b.v <", 36, "", "expected expression"},
		{"wrong outer alias", "SELECT SUM(x.price) FROM bids b", 11, "x", "does not match outer relation alias"},
		{"unqualified group by", "SELECT SUM(b.v) FROM r b GROUP BY 7", 34, "7", "plain columns only"},
		{"bad number", "SELECT SUM(b.v) FROM r b WHERE b.v < 1.2.3", 37, "1.2.3", "invalid number"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.sql)
			if err == nil {
				t.Fatalf("no error for %q", c.sql)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %q is not a *ParseError", err)
			}
			if pe.Offset != c.offset || pe.Token != c.token {
				t.Errorf("got offset=%d token=%q, want offset=%d token=%q (err %q)",
					pe.Offset, pe.Token, c.offset, c.token, err)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("error %q does not report a position", err)
			}
		})
	}
}
