package engine

import (
	"fmt"
	"sort"
	"strings"

	"rpai/internal/query"
)

// Plan is the optimizer's explanation of how New would execute a query: the
// strategy it picked, the aggregate-index representation backing it (empty
// for the general and naive strategies), the correlation column and operator
// driving the index, and the canonical predicate renderings. It is the body
// of EXPLAIN, surfaced per registered query by the catalog.
type Plan struct {
	Strategy   string   // "naive" | "general" | "aggindex" | "relstate"
	IndexKind  string   // "pai" | "rpai-arena" | "level-tree" | "" (no index)
	KeyCol     string   // correlation / compared column keying the index
	SubOp      string   // correlation operator of the indexed predicate
	Agg        string   // outer aggregate expression
	GroupBy    []string // grouping columns (nil for scalar queries)
	Predicates []string // canonical rendering of each conjunct
	PredSig    string   // predicate-structure signature (constants masked)
}

// Describe runs the identification step of section 4.3.1 and reports the
// executor New would build, without retaining it. The strategy and index
// kind are read off the constructed executor itself, so Describe can never
// disagree with execution.
func Describe(q *query.Query) (Plan, error) {
	ex, err := New(q)
	if err != nil {
		return Plan{}, err
	}
	pl := Plan{
		Strategy: ex.Strategy(),
		Agg:      q.Agg.String(),
		PredSig:  PredSig(q),
	}
	if len(q.GroupBy) > 0 {
		pl.GroupBy = append([]string(nil), q.GroupBy...)
	}
	for _, p := range q.Preds {
		pl.Predicates = append(pl.Predicates, p.String())
	}
	switch e := ex.(type) {
	case *AggIndexExec:
		pl.KeyCol = e.b.plan.KeyCol
		pl.SubOp = e.b.plan.SubOp.String()
		pl.IndexKind = "pai"
	case *relStateExec:
		rp := e.rs.b.plan
		pl.KeyCol = rp.keyCol
		switch rp.kind {
		case PredCorrelated:
			// An RPAI on the arena with its relative keys held implicitly,
			// as the weight lane's prefix sums of the level tree (DESIGN §4b).
			pl.SubOp = rp.subOp.String()
			pl.IndexKind = "rpai-arena"
		case PredColumn:
			pl.SubOp = rp.thetaCorrFirst.String()
			pl.IndexKind = "level-tree"
		}
	}
	return pl, nil
}

// PredSig is the query's predicate-structure signature: the canonical query
// rendering with every literal constant masked to "?". Two queries with equal
// signatures have identical predicate structure over the same relation — the
// shape the catalog's state-sharing rule starts from (the state key
// additionally preserves non-threshold constants; see StateKey).
//
// The rendering is deterministic across spellings of the same predicate
// structure:
//   - comparison direction is normalized: Gt/Ge conjuncts are flipped to
//     Lt/Le (so `? > a` and `a < ?` share a rendering), and the symmetric Eq
//     orders its operand renderings lexicographically;
//   - conjunct order is normalized: top-level predicates and subquery filter
//     conjuncts are sorted by their rendered form, so reordering AND-ed
//     conjuncts does not change the signature.
func PredSig(q *query.Query) string {
	var b strings.Builder
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, "R[%s]", strings.Join(q.GroupBy, ","))
	} else {
		b.WriteString("R")
	}
	switch q.Outer {
	case query.Count:
		b.WriteString(" COUNT(*)")
	case query.Avg:
		fmt.Fprintf(&b, " AVG(%s)", sigExpr(q.Agg))
	default:
		fmt.Fprintf(&b, " SUM(%s)", sigExpr(q.Agg))
	}
	conj := make([]string, 0, len(q.Preds))
	for _, p := range q.Preds {
		conj = append(conj, sigPred(p))
	}
	sort.Strings(conj)
	for _, c := range conj {
		b.WriteString(" | ")
		b.WriteString(c)
	}
	return b.String()
}

// sigPred renders one top-level conjunct with normalized direction: Gt/Ge
// flip to Lt/Le by swapping operands, and Eq (symmetric) orders operand
// renderings lexicographically.
func sigPred(p query.Predicate) string {
	l, r, op := sigValue(p.Left), sigValue(p.Right), p.Op
	if op == query.Gt || op == query.Ge {
		l, r, op = r, l, op.Flip()
	}
	if op == query.Eq && r < l {
		l, r = r, l
	}
	return fmt.Sprintf("%s %s %s", l, op, r)
}

func sigExpr(e query.Expr) string {
	switch x := e.(type) {
	case query.Const:
		return "?"
	case query.Col:
		return string(x)
	case query.BinOp:
		return fmt.Sprintf("(%s %c %s)", sigExpr(x.L), x.Op, sigExpr(x.R))
	default:
		return e.String()
	}
}

func sigValue(v query.Value) string {
	if v.Sub == nil {
		return sigExpr(v.Expr)
	}
	s := sigSub(v.Sub)
	if v.Scale == 1 {
		return s
	}
	return "? * " + s
}

func sigSub(s *query.Subquery) string {
	var conj []string
	if s.Where != nil {
		// The parser already normalizes the correlation direction (the
		// inner column is always on the left, flipping the operator when
		// the SQL spelled it the other way), so Inner/Op/Outer is a
		// canonical rendering as stored.
		conj = append(conj, fmt.Sprintf("%s %s %s", sigExpr(s.Where.Inner), s.Where.Op, sigExpr(s.Where.Outer)))
	}
	filters := make([]string, 0, len(s.Filters))
	for _, f := range s.Filters {
		filters = append(filters, fmt.Sprintf("%s %s ?", sigExpr(f.Inner), f.Op))
	}
	sort.Strings(filters)
	conj = append(conj, filters...)
	if s.Nested != nil {
		conj = append(conj, fmt.Sprintf("%s %s %s@%s",
			sigValue(s.Nested.Threshold), s.Nested.Op, sigSub(s.Nested.Inner), s.Nested.Col))
	}
	of := "*"
	if s.Of != nil {
		of = sigExpr(s.Of)
	}
	w := ""
	if len(conj) > 0 {
		w = " WHERE " + strings.Join(conj, " AND ")
	}
	return fmt.Sprintf("(%s(%s)%s)", s.Kind, of, w)
}
