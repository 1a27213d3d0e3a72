// Package query models the aggregate-query fragment of the paper's grammar
// (section 4.1): aggregate queries over a single streamed relation whose
// conjunctive join predicates may contain correlated or uncorrelated nested
// aggregate subqueries.
//
//	AggrQ      -> Aggr(AggrFunc, Relation, Predicates)
//	Predicate  -> Value θ Value        θ in {<, <=, =, >=, >}
//	Value      -> Const | Col | Scale * AggrQ
//
// The package provides the structural analyses the paper's algorithms need:
// free and bound columns per subquery (section 4.1's free/bound utilities),
// predicate-value extraction, and the eligibility test for the aggregate-
// index optimization (section 4.3.1). Executors for these queries live in
// package engine.
//
// Schema and Bind take expressions off tuple maps: a Schema is an
// append-only column layout, and Bind compiles an Expr into a closure over a
// row of that layout that evaluates exactly as Eval does on the tuple the
// row was laid out from.
package query

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one streamed record: a mapping from column names to values.
type Tuple map[string]float64

// CmpOp is a comparison operator θ.
type CmpOp int

// Comparison operators of the grammar.
const (
	Lt CmpOp = iota
	Le
	Eq
	Ge
	Gt
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	case Gt:
		return ">"
	}
	return "?"
}

// Compare applies the operator to two values.
func (o CmpOp) Compare(l, r float64) bool {
	switch o {
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Eq:
		return l == r
	case Ge:
		return l >= r
	case Gt:
		return l > r
	}
	return false
}

// Flip returns the operator with its sides exchanged (l θ r == r θ.Flip() l).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Ge:
		return Le
	case Gt:
		return Lt
	}
	return o
}

// Expr is a scalar expression over one tuple.
type Expr interface {
	// Eval computes the expression on a tuple.
	Eval(t Tuple) float64
	// Cols appends the column names the expression reads.
	Cols() []string
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Const is a literal value.
type Const float64

// Eval implements Expr.
func (c Const) Eval(Tuple) float64 { return float64(c) }

// Cols implements Expr.
func (c Const) Cols() []string { return nil }

func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }

// Col reads one column of the tuple.
type Col string

// Eval implements Expr.
func (c Col) Eval(t Tuple) float64 { return t[string(c)] }

// Cols implements Expr.
func (c Col) Cols() []string { return []string{string(c)} }

func (c Col) String() string { return string(c) }

// BinOp kinds.
const (
	OpAdd = '+'
	OpSub = '-'
	OpMul = '*'
	OpDiv = '/'
)

// BinOp combines two expressions arithmetically.
type BinOp struct {
	Op   byte // one of OpAdd, OpSub, OpMul, OpDiv
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(t Tuple) float64 {
	l, r := b.L.Eval(t), b.R.Eval(t)
	switch b.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return l / r
	}
	panic("query: unknown binary operator")
}

// Cols implements Expr.
func (b BinOp) Cols() []string { return append(b.L.Cols(), b.R.Cols()...) }

func (b BinOp) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L.String(), b.Op, b.R.String())
}

// Mul is shorthand for a product expression.
func Mul(l, r Expr) Expr { return BinOp{OpMul, l, r} }

// AggKind is the aggregate function of a subquery.
type AggKind int

// Aggregate kinds. Min and Max are representable but rejected by the
// incremental engines for deletion streams (paper section 4.2.5); package
// minmax provides the order-statistic structure that lifts that restriction.
const (
	Sum AggKind = iota
	Count
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	return [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX"}[k]
}

// Streamable reports whether the aggregate can be maintained under both
// insertions and deletions from its current value alone (section 4.2.5).
func (k AggKind) Streamable() bool { return k == Sum || k == Count || k == Avg }

// CorrPred is the predicate inside a nested subquery, comparing an
// expression over the inner tuple against an expression over the outer
// tuple: inner θ outer. An uncorrelated filter has an OuterExpr with no
// columns (e.g. a constant).
type CorrPred struct {
	Inner Expr // over the inner tuple
	Op    CmpOp
	Outer Expr // over the outer tuple; no columns => uncorrelated filter
}

// FilterPred is an inner-only conjunct of a subquery's WHERE clause: an
// expression over the inner tuple compared against a constant.
type FilterPred struct {
	Inner Expr
	Op    CmpOp
	Value float64
}

// Match reports whether the inner tuple passes the filter.
func (f FilterPred) Match(t Tuple) bool { return f.Op.Compare(f.Inner.Eval(t), f.Value) }

// String renders the filter.
func (f FilterPred) String() string {
	return fmt.Sprintf("%s %s %g", f.Inner, f.Op, f.Value)
}

// NestedCond is a second level of nesting inside a subquery's WHERE clause
// (the NQ1/NQ2 shape of section 5.2.1): the middle tuple u qualifies only if
//
//	Threshold.Scale * Threshold-aggregate  <  SUM(Inner.Of | w.col <= u.col)
//
// The threshold aggregate is either uncorrelated (NQ1) or correlated to the
// outermost tuple on a column (NQ2, via ThresholdOuter); the innermost
// aggregate is always correlated to the middle tuple on Col. The engines
// support Op = Lt (the form both synthetic queries use).
type NestedCond struct {
	// Threshold is a Const or a scaled SUM subquery. If the subquery's
	// Where is non-nil, its Outer expression is evaluated on the OUTERMOST
	// tuple (the NQ2 correlation); its Inner must be the same Col.
	Threshold Value
	Op        CmpOp
	// Inner is the innermost aggregate: SUM(Of) over tuples w with
	// w[Col] <= u[Col] (u the middle tuple). Of must be positive-valued.
	Inner *Subquery
	// Col is the shared ordering column of the middle and innermost levels.
	Col string
}

// Subquery is a nested aggregate Aggr(Of) over the same relation, optionally
// restricted by one correlation predicate, any number of inner-only filters
// (the grammar's AND-connected predicates, section 4.1), and at most one
// second-level nested condition.
type Subquery struct {
	Kind    AggKind
	Of      Expr      // expression over the inner tuple (ignored for Count)
	Where   *CorrPred // nil for an uncorrelated aggregate
	Filters []FilterPred
	Nested  *NestedCond // nil for single-level subqueries
}

// MatchFilters reports whether the inner tuple passes every inner-only
// filter.
func (s *Subquery) MatchFilters(t Tuple) bool {
	for _, f := range s.Filters {
		if !f.Match(t) {
			return false
		}
	}
	return true
}

// Free returns the outer columns the subquery depends on (the paper's free
// utility): empty for uncorrelated subqueries. A nested condition's
// outer-correlated threshold (the NQ2 shape) contributes its columns too.
func (s *Subquery) Free() []string {
	var cols []string
	if s.Where != nil {
		cols = append(cols, s.Where.Outer.Cols()...)
	}
	if s.Nested != nil {
		if ts := s.Nested.Threshold.Sub; ts != nil && ts.Where != nil {
			cols = append(cols, ts.Where.Outer.Cols()...)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	return dedup(cols)
}

// Bound returns the inner columns used in the subquery's predicate (the
// paper's bound utility).
func (s *Subquery) Bound() []string {
	if s.Where == nil {
		return nil
	}
	return dedup(s.Where.Inner.Cols())
}

// Correlated reports whether the subquery references outer columns.
func (s *Subquery) Correlated() bool { return len(s.Free()) > 0 }

// String renders the subquery.
func (s *Subquery) String() string {
	of := "*"
	if s.Kind != Count {
		of = s.Of.String()
	}
	var conj []string
	if s.Where != nil {
		conj = append(conj, fmt.Sprintf("%s %s %s", s.Where.Inner, s.Where.Op, s.Where.Outer))
	}
	for _, f := range s.Filters {
		conj = append(conj, f.String())
	}
	w := ""
	if len(conj) > 0 {
		w = " WHERE " + strings.Join(conj, " AND ")
	}
	return fmt.Sprintf("(SELECT %s(%s) FROM R%s)", s.Kind, of, w)
}

// Value is one side of a top-level predicate: either a scalar expression
// over the outer tuple, or a scaled nested aggregate.
type Value struct {
	Scale float64   // multiplier for Sub; ignored when Sub is nil
	Sub   *Subquery // nil => Expr side
	Expr  Expr      // used when Sub is nil
}

// ValExpr builds a scalar Value.
func ValExpr(e Expr) Value { return Value{Expr: e} }

// ValSub builds a scaled-subquery Value.
func ValSub(scale float64, s *Subquery) Value { return Value{Scale: scale, Sub: s} }

// Free returns the outer columns the value depends on.
func (v Value) Free() []string {
	if v.Sub != nil {
		return v.Sub.Free()
	}
	return dedup(v.Expr.Cols())
}

// String renders the value.
func (v Value) String() string {
	if v.Sub == nil {
		return v.Expr.String()
	}
	if v.Scale == 1 {
		return v.Sub.String()
	}
	return fmt.Sprintf("%g * %s", v.Scale, v.Sub)
}

// Predicate is one conjunct of the outer WHERE clause.
type Predicate struct {
	Left  Value
	Op    CmpOp
	Right Value
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// Query is an aggregate query over a single streamed relation.
type Query struct {
	// Agg is the outer aggregate's per-tuple expression (summed over
	// qualifying tuples).
	Agg Expr
	// Outer is the outer aggregate function applied to Agg over the
	// qualifying tuples: Sum (the zero value, so struct literals without the
	// field keep their historical meaning), Count, or Avg. A Count query
	// fixes Agg to the constant 1 — maintained term state is then bitwise
	// identical to a count index, which is what lets COUNT variants share a
	// SUM variant's StateSet (see engine.StateKey).
	Outer AggKind
	// GroupBy lists the grouping columns (the grammar's Aggr[cols]); empty
	// for a scalar query.
	GroupBy []string
	// Preds are the conjunctive predicates.
	Preds []Predicate
}

// OuterString renders the outer aggregate clause: SUM(expr), COUNT(*), or
// AVG(expr).
func (q *Query) OuterString() string {
	switch q.Outer {
	case Count:
		return "COUNT(*)"
	case Avg:
		return fmt.Sprintf("AVG(%s)", q.Agg)
	default:
		return fmt.Sprintf("SUM(%s)", q.Agg)
	}
}

// String renders the query.
func (q *Query) String() string {
	var b strings.Builder
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, "SELECT %s, %s FROM R", strings.Join(q.GroupBy, ", "), q.OuterString())
	} else {
		fmt.Fprintf(&b, "SELECT %s FROM R", q.OuterString())
	}
	for i, p := range q.Preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// ExtractPredValues returns all predicate values of the query (the paper's
// extractPredVals utility), left sides before right sides.
func (q *Query) ExtractPredValues() []Value {
	out := make([]Value, 0, 2*len(q.Preds))
	for _, p := range q.Preds {
		out = append(out, p.Left, p.Right)
	}
	return out
}

// Subqueries returns the nested aggregates appearing in the predicates.
func (q *Query) Subqueries() []*Subquery {
	var out []*Subquery
	for _, v := range q.ExtractPredValues() {
		if v.Sub != nil {
			out = append(out, v.Sub)
		}
	}
	return out
}

// OuterCols returns the outer columns the predicates depend on — the union
// of free columns across predicate values. These are the grouping columns of
// the general algorithm's result maps (section 4.2.2).
func (q *Query) OuterCols() []string {
	var all []string
	for _, v := range q.ExtractPredValues() {
		all = append(all, v.Free()...)
	}
	return dedup(all)
}

// Validate rejects queries the incremental engines cannot maintain under
// deletion streams (non-streamable nested aggregates, section 4.2.5) and
// malformed two-level nesting.
func (q *Query) Validate() error {
	if !q.Outer.Streamable() {
		return fmt.Errorf("query: top-level %s is not maintainable under deletions (section 4.2.5)", q.Outer)
	}
	if q.Outer == Count {
		if c, ok := q.Agg.(Const); !ok || c != 1 {
			return fmt.Errorf("query: a COUNT(*) query must carry the constant-1 aggregate term, found %s", q.Agg)
		}
	}
	for _, s := range q.Subqueries() {
		if !s.Kind.Streamable() {
			return fmt.Errorf("query: %s is not streamable under deletions (section 4.2.5)", s.Kind)
		}
		if s.Nested != nil {
			if err := s.Nested.validate(s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (n *NestedCond) validate(parent *Subquery) error {
	if n.Op != Lt {
		return fmt.Errorf("query: nested conditions support < only")
	}
	if parent.Kind != Sum {
		return fmt.Errorf("query: nested conditions require a SUM middle aggregate")
	}
	if parent.Where == nil {
		return fmt.Errorf("query: nested conditions require a correlated middle subquery")
	}
	if mc, ok := parent.Where.Inner.(Col); !ok || string(mc) != n.Col {
		return fmt.Errorf("query: the middle correlation must order by the nested condition's column %q", n.Col)
	}
	if parent.Where.Op != Le {
		return fmt.Errorf("query: the middle correlation must be <=")
	}
	if n.Inner == nil || n.Inner.Kind != Sum || n.Inner.Of == nil {
		return fmt.Errorf("query: the innermost aggregate must be a SUM with an expression")
	}
	if n.Inner.Where == nil {
		return fmt.Errorf("query: the innermost aggregate must be correlated on %q", n.Col)
	}
	if ic, ok := n.Inner.Where.Inner.(Col); !ok || string(ic) != n.Col || n.Inner.Where.Op != Le {
		return fmt.Errorf("query: the innermost correlation must be %q <= middle.%q", n.Col, n.Col)
	}
	t := n.Threshold
	if t.Sub != nil {
		if t.Sub.Kind != Sum || t.Sub.Of == nil {
			return fmt.Errorf("query: the nested threshold must be a SUM")
		}
		if t.Sub.Where != nil {
			if tc, ok := t.Sub.Where.Inner.(Col); !ok || string(tc) != n.Col || t.Sub.Where.Op != Le {
				return fmt.Errorf("query: an outer-correlated nested threshold must filter %q <= outer column", n.Col)
			}
		}
	} else if len(t.Expr.Cols()) != 0 {
		return fmt.Errorf("query: a non-aggregate nested threshold must be constant")
	}
	return nil
}

// AggIndexPlan describes how the aggregate-index optimization applies to a
// query (section 4.3): which predicate's correlated subquery becomes the
// index key, and from which side the threshold value is read.
type AggIndexPlan struct {
	// PredIndex is the index of the single predicate in Preds.
	PredIndex int
	// Corr is the correlated subquery serving as the index key source.
	Corr *Subquery
	// CorrOnLeft says whether Corr is the predicate's left value.
	CorrOnLeft bool
	// Threshold is the uncorrelated value compared against the subquery.
	Threshold Value
	// ThetaCorrFirst is the comparison with the correlated aggregate on the
	// left (flipped if needed).
	ThetaCorrFirst CmpOp
	// KeyCol is the column correlating inner and outer tuples.
	KeyCol string
	// SubOp is the subquery's correlation operator (inner SubOp outer).
	SubOp CmpOp
}

// PlanAggIndex decides whether the aggregate-index optimization of section
// 4.3 applies and returns the plan. The requirements (section 4.3, "main
// requirement ... a single aggregate value or a single range of aggregate
// values"):
//
//   - exactly one predicate,
//   - one side a correlated SUM/COUNT subquery whose correlation compares a
//     bare inner column against the same bare outer column (symmetric, so a
//     tuple's arrival shifts a contiguous range of aggregate keys),
//   - the other side uncorrelated (constant or uncorrelated subquery),
//   - the correlation operator an equality (point moves, PAI map) or <=
//     (prefix-monotone keys, RPAI tree).
func (q *Query) PlanAggIndex() (AggIndexPlan, bool) {
	if len(q.Preds) != 1 {
		return AggIndexPlan{}, false
	}
	p := q.Preds[0]
	try := func(corr, other Value, corrOnLeft bool, theta CmpOp) (AggIndexPlan, bool) {
		s := corr.Sub
		if s == nil || !s.Correlated() || len(other.Free()) != 0 {
			return AggIndexPlan{}, false
		}
		if s.Nested != nil || (other.Sub != nil && other.Sub.Nested != nil) {
			return AggIndexPlan{}, false
		}
		if s.Kind != Sum && s.Kind != Count {
			return AggIndexPlan{}, false
		}
		if len(s.Filters) > 0 {
			// Filtered levels can carry zero weight, breaking the strict
			// key-distinctness the range-shift maintenance relies on.
			return AggIndexPlan{}, false
		}
		if corr.Scale != 1 {
			return AggIndexPlan{}, false
		}
		w := s.Where
		inner, iok := w.Inner.(Col)
		outer, ook := w.Outer.(Col)
		if !iok || !ook || inner != outer {
			return AggIndexPlan{}, false
		}
		if w.Op != Eq && w.Op != Le {
			return AggIndexPlan{}, false
		}
		return AggIndexPlan{
			PredIndex:      0,
			Corr:           s,
			CorrOnLeft:     corrOnLeft,
			Threshold:      other,
			ThetaCorrFirst: theta,
			KeyCol:         string(inner),
			SubOp:          w.Op,
		}, true
	}
	if plan, ok := try(p.Left, p.Right, true, p.Op); ok {
		return plan, true
	}
	return try(p.Right, p.Left, false, p.Op.Flip())
}

func dedup(cols []string) []string {
	if len(cols) == 0 {
		return nil
	}
	sort.Strings(cols)
	out := cols[:1]
	for _, c := range cols[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
