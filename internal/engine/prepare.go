package engine

import (
	"fmt"
	"io"
	"strings"

	"rpai/internal/checkpoint"
	"rpai/internal/query"
)

// This file binds a query to a row schema once. Prepare plans the query —
// the identification step New performs — and compiles every expression its
// executors evaluate per event against a query.Schema, so the apply path
// reads row slots, never column names: no tuple map, no name hashing, no
// interpreted Expr walk. Every executor a Prepared builds shares its plan and
// bound expressions; a serving state set with thousands of partition
// executors binds once. The map API (Executor.Apply, BatchExecutor.
// ApplyBatch) is the edge: it lays each tuple out as a row of the schema and
// takes the row path.

// RowExecutor is an executor that applies events in row form. Every executor
// Prepare builds implements it.
type RowExecutor interface {
	BatchExecutor
	// ApplyRows applies rows, laid out under the schema of the Prepared that
	// built the executor (or a schema extending it), in order. The final
	// state is bit-identical to applying the events the rows were laid out
	// from one at a time.
	ApplyRows(rows *Rows)
	// ResultProbe reads probe plans against the executor's maintained state;
	// specs need not be sorted or unique, and vals[i] receives spec i's
	// value. For AVG specs vals[i] is the raw qualifying term sum and cnts[i]
	// the qualifying count; for SUM and COUNT specs vals[i] is final and
	// cnts[i] is untouched. Residual gating is the caller's concern (it is
	// per partition, and the executor sees only its own partition). Every
	// executor answers at least its Prepared's Spec, bit-identical to its
	// Result; the relation-state and PAI executors answer any spec their
	// state carries (see StateKey), each lane bit-identical to the Result of
	// a dedicated executor of that variant fed the same events.
	ResultProbe(specs []ProbeSpec, vals, cnts []float64)
}

// Prepared is a query planned once and bound to a row schema.
type Prepared struct {
	q      *query.Query
	schema *query.Schema
	// spec is the probe plan Result reads (see Spec).
	spec ProbeSpec
	// Exactly the strategy New picks is built by New; the other bindings
	// serve Restore, which rebuilds whatever strategy a snapshot names.
	build func() RowExecutor
	gen   *genBinding
	agg   *aggBinding // nil unless PlanAggIndex applies
	rel   *relBinding // nil unless the relation-state shape applies
	// Admission's bound reads (see Admit).
	term   query.Bound
	key    int         // the level tree's key slot, -1 when the plan has none
	weight query.Bound // the correlated weight, nil unless summed
	// levelKeys read the keys of the general algorithm's level trees, when
	// New builds it.
	levelKeys []query.Bound
	// admitKey identifies the checks above (see AdmitKey).
	admitKey string
}

// Prepare plans q and binds it to s, which must hold every column q reads
// (q.Columns()). It returns an error for queries outside the maintainable
// fragment, as New does.
func Prepare(q *query.Query, s *query.Schema) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for _, c := range q.Columns() {
		if _, ok := s.Slot(c); !ok {
			return nil, fmt.Errorf("engine: schema %v lacks column %q read by %s", s.Cols(), c, q)
		}
	}
	p := &Prepared{q: q, schema: s, gen: bindGeneral(q, s), term: query.Bind(q.Agg, s), key: -1,
		spec: ProbeSpec{Kind: q.Outer}}
	checks := []string{admitCheck("term", q.Agg, s)}
	scalar1 := len(q.GroupBy) == 0 && len(q.Preds) == 1
	if plan, ok := q.PlanAggIndex(); ok {
		p.agg = bindAggIndex(q, plan, s)
	}
	if scalar1 && noNested(q) {
		if rb, err := bindRel(RelSpec{Name: "R", Term: q.Agg, Pred: q.Preds[0]}, s); err == nil {
			p.rel = rb
		}
	}
	switch {
	// The PAI equality executor maintains only the summed aggregate, so it
	// serves SUM outers; COUNT and AVG need the count side relState keeps.
	case scalar1 && p.agg != nil && p.agg.plan.SubOp == query.Eq && q.Outer == query.Sum:
		p.build = func() RowExecutor { return newAggIndexExec(p.agg) }
		p.spec.Const = thresholdConst(p.agg.plan.Threshold, p.agg.thrConst)
	case scalar1 && p.rel != nil:
		p.build = func() RowExecutor { return &relStateExec{rs: newRelState(p.rel), outer: q.Outer} }
		p.spec.Const = thresholdConst(p.rel.plan.threshold, p.rel.thrConst)
		p.key = p.rel.key
		checks = append(checks, admitCheck("key", query.Col(p.rel.plan.keyCol), s))
		if p.rel.plan.kind == PredCorrelated {
			p.weight = p.rel.weight
			if p.weight != nil {
				checks = append(checks, admitCheck("weight", p.rel.plan.corr.Of, s))
			}
		}
	default:
		p.build = func() RowExecutor { return newGeneralExec(p.gen) }
		for _, b := range p.gen.subs {
			if b.correlated {
				p.levelKeys = append(p.levelKeys, b.inner)
				checks = append(checks, admitCheck("level", b.sub.Where.Inner, s))
			}
			if b.nested != nil {
				nested := query.Col(b.sub.Nested.Col)
				p.levelKeys = append(p.levelKeys, query.Bind(nested, s))
				checks = append(checks, admitCheck("level", nested, s))
			}
		}
	}
	p.admitKey = strings.Join(checks, "; ")
	return p, nil
}

// admitCheck renders one of Admit's checks for AdmitKey: what it checks,
// the expression, and the schema slot of each column the expression reads.
func admitCheck(kind string, e query.Expr, s *query.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s @", kind, e)
	for _, c := range e.Cols() {
		slot, _ := s.Slot(c)
		fmt.Fprintf(&b, " %d", slot)
	}
	return b.String()
}

// AdmitKey identifies the checks Admit runs: the expressions it reads and
// the row slots they read them from. Two Prepared with equal keys admit
// exactly the same events with the same errors, so a caller checking rows
// against several of them (a catalog's state sets) runs each distinct key
// once.
func (p *Prepared) AdmitKey() string { return p.admitKey }

// Spec is the probe plan equal to Result: the query's outer aggregate at the
// constant its threshold scales (see StateKey), or, for the general
// algorithm, whose state answers only its own query, the aggregate alone.
// ResultProbe of Spec is bit-identical to Result, so a served value is always
// a probe lane.
func (p *Prepared) Spec() ProbeSpec { return p.spec }

// thresholdConst is the constant a probe multiplies the threshold side's
// base by: a subquery's scale, or a constant threshold's value.
func thresholdConst(v query.Value, literal float64) float64 {
	if v.Sub != nil {
		return v.Scale
	}
	return literal
}

// prepareOwn prepares q against the schema of its own columns: the binding
// behind the map-API constructors.
func prepareOwn(q *query.Query) (*Prepared, error) {
	return Prepare(q, query.NewSchema(q.Columns()...))
}

// New builds a fresh executor: the strategy New(q) would pick.
func (p *Prepared) New() RowExecutor { return p.build() }

// Restore rebuilds an executor from a stream written by its Snapshot. As
// with the package-level Restore, the strategy is the one the stream names.
func (p *Prepared) Restore(r io.Reader) (RowExecutor, error) {
	d := checkpoint.NewDecoder(r)
	var ex RowExecutor
	switch tag := readSnapHeader(d); {
	case d.Err() != nil:
	case tag == tagNaive:
		d.Fail(fmt.Errorf("engine: a naive-executor snapshot has no row path: %s", p.q))
	default:
		ex = p.restore(d, tag)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ex, nil
}

// restore dispatches a non-naive snapshot tag onto its binding.
func (p *Prepared) restore(d *checkpoint.Decoder, tag uint8) RowExecutor {
	switch tag {
	case tagGeneral:
		if g := restoreGeneral(d, p.gen); g != nil {
			return g
		}
	case tagAggIndex:
		if p.agg == nil {
			d.Fail(fmt.Errorf("engine: query not eligible for an aggregate-index snapshot: %s", p.q))
		} else if ex := restoreAggIndex(d, p.agg); ex != nil {
			return ex
		}
	case tagRelState:
		if p.rel == nil {
			d.Fail(fmt.Errorf("engine: query shape does not match a single-relation snapshot: %s", p.q))
		} else if rs := restoreRelState(d, p.rel); rs != nil {
			return &relStateExec{rs: rs, outer: p.q.Outer}
		}
	default:
		d.Fail(fmt.Errorf("engine: unknown executor snapshot tag %d", tag))
	}
	return nil
}

// edgeRows lays map events out as rows of s in *scratch (allocated on first
// use) — the one way the map API enters an executor.
func edgeRows(s *query.Schema, scratch **Rows, events []Event) *Rows {
	r := *scratch
	if r == nil {
		r = new(Rows)
		*scratch = r
	}
	r.Reset(s.Len())
	cols := s.Cols()
	for i := range events {
		r.Project(events[i].X, cols, events[i].Tuple)
	}
	return r
}

// boundFilter is a FilterPred bound to a schema.
type boundFilter struct {
	inner query.Bound
	op    query.CmpOp
	value float64
}

func bindFilters(fs []query.FilterPred, s *query.Schema) []boundFilter {
	out := make([]boundFilter, len(fs))
	for i, f := range fs {
		out[i] = boundFilter{inner: query.Bind(f.Inner, s), op: f.Op, value: f.Value}
	}
	return out
}

// matchAll reports whether row passes every filter.
func matchAll(fs []boundFilter, row []float64) bool {
	for i := range fs {
		if !fs[i].op.Compare(fs[i].inner(row), fs[i].value) {
			return false
		}
	}
	return true
}

// subBinding is a subquery bound to a schema: what its maintained state reads
// per event. Whether it is correlated is decided here, once; a two-level
// subquery counts as correlated even when no bound reads an outer column,
// since its read sums the levels of a key range.
type subBinding struct {
	sub        *query.Subquery
	correlated bool
	filters    []boundFilter
	of         query.Bound // nil when the subquery has no Of expression
	inner      query.Bound // Where.Inner; nil without a correlation predicate
	// outerConst is an uncorrelated Where's constant outer side; outer reads
	// a correlated one from a group's projection (see bindGeneral).
	outerConst float64
	outer      query.Bound
	nested     *nestedBinding
}

// nestedBinding is a second-level nested condition bound to a schema.
type nestedBinding struct {
	col          int // the shared ordering column's slot
	innerFilters []boundFilter
	innerOf      query.Bound
	// thrFilters/thrOf bind the threshold subquery; thrOf is nil when the
	// threshold is not an aggregate.
	thrFilters []boundFilter
	thrOf      query.Bound
	thrTree    bool // the threshold is outer-correlated (kept as a tree)
	// thrConst is the threshold when it is a constant expression; thrOuter
	// reads an outer-correlated threshold's bound from a group's projection
	// (see bindGeneral).
	thrConst float64
	thrOuter query.Bound
}

func bindSub(sq *query.Subquery, s *query.Schema) *subBinding {
	b := &subBinding{sub: sq, correlated: sq.Correlated() || sq.Nested != nil, filters: bindFilters(sq.Filters, s)}
	if sq.Of != nil {
		b.of = query.Bind(sq.Of, s)
	}
	if sq.Where != nil {
		b.inner = query.Bind(sq.Where.Inner, s)
		if !b.correlated {
			b.outerConst = sq.Where.Outer.Eval(nil)
		}
	}
	if nc := sq.Nested; nc != nil {
		slot, _ := s.Slot(nc.Col)
		nb := &nestedBinding{col: slot, innerFilters: bindFilters(nc.Inner.Filters, s), innerOf: query.Bind(nc.Inner.Of, s)}
		if ts := nc.Threshold.Sub; ts != nil {
			nb.thrFilters = bindFilters(ts.Filters, s)
			nb.thrOf = query.Bind(ts.Of, s)
			nb.thrTree = ts.Where != nil
		} else {
			nb.thrConst = nc.Threshold.Expr.Eval(nil)
		}
		b.nested = nb
	}
	return b
}
