package engine

import (
	"fmt"

	"rpai/internal/query"
	"rpai/internal/rpai"
)

// This file implements the multi-relation form of the aggregate-index
// optimization (paper section 4.3):
//
//	AggrQ(AggrFunc, R1 ... Rn, v1 θ q_R1 AND ... AND vn θ q_Rn)
//
// Each predicate concerns exactly one relation: its correlated subquery
// ranges over Ri and is correlated only on Ri's columns (MST's shape), or it
// compares an Ri column against an uncorrelated aggregate over Ri (PSP's
// shape). Because the predicates are per-relation, the cross join
// factorizes: with Qi the qualifying subset of Ri, Ci = |Qi| and
// Si = sum of the relation's term over Qi,
//
//	SUM over the join of (f1(t1) + ... + fn(tn)) = sum_i Si * prod_{j!=i} Cj
//	SUM over the join of (f1(t1) * ... * fn(tn)) = prod_i Si
//
// so the incremental executor maintains only (Ci, Si) per relation, each via
// the single-relation aggregate-index machinery, and every update costs
// O(log n) (Table 1's MST and PSP rows).

// RelPredKind distinguishes the two per-relation predicate shapes.
type RelPredKind int

// Per-relation predicate shapes.
const (
	// PredCorrelated: threshold θ SUM/COUNT(... WHERE inner-col θ' own-col) —
	// a correlated subquery over the same relation (MST).
	PredCorrelated RelPredKind = iota
	// PredColumn: own-col θ scale*SUM(...) — a column compared against an
	// uncorrelated aggregate over the same relation (PSP).
	PredColumn
)

// RelSpec describes one relation of a multi-relation aggregate query.
type RelSpec struct {
	// Name identifies the relation in events.
	Name string
	// Term is the relation's factor fi(ti) in the combined aggregate.
	Term query.Expr
	// Pred is the relation's predicate; its subqueries range over this
	// relation only.
	Pred query.Predicate
}

// MultiQuery is an aggregate over the cross join of several streamed
// relations with per-relation predicates.
type MultiQuery struct {
	// Combine is OpAdd (terms summed, as in MST and PSP) or OpMul (terms
	// multiplied).
	Combine byte
	Rels    []RelSpec
}

// Validate checks the structural requirements described above.
func (m *MultiQuery) Validate() error {
	if m.Combine != query.OpAdd && m.Combine != query.OpMul {
		return fmt.Errorf("engine: multi-relation combine must be + or *")
	}
	if len(m.Rels) == 0 {
		return fmt.Errorf("engine: multi-relation query needs at least one relation")
	}
	seen := map[string]bool{}
	for _, r := range m.Rels {
		if seen[r.Name] {
			return fmt.Errorf("engine: duplicate relation %q", r.Name)
		}
		seen[r.Name] = true
		if _, err := classifyRelPred(r.Pred); err != nil {
			return fmt.Errorf("engine: relation %q: %w", r.Name, err)
		}
	}
	return nil
}

// relPlan is the analyzed form of one relation's predicate.
type relPlan struct {
	kind RelPredKind
	// threshold: the uncorrelated side (scaled subquery or constant).
	threshold query.Value
	// thetaCorrFirst: comparison with the correlated quantity first.
	thetaCorrFirst query.CmpOp
	// corr: the correlated subquery (PredCorrelated).
	corr *query.Subquery
	// keyCol: correlation column (PredCorrelated) or compared column
	// (PredColumn).
	keyCol string
	// subOp: the subquery's correlation operator (PredCorrelated).
	subOp query.CmpOp
}

func classifyRelPred(p query.Predicate) (relPlan, error) {
	uncorrelated := func(v query.Value) bool {
		return len(v.Free()) == 0 && (v.Sub == nil || !v.Sub.Correlated())
	}
	// Equality against an aggregate range is a point lookup, not a range
	// sum — that is the PAI path (Figure 1c), handled elsewhere.
	inequality := func(op query.CmpOp) bool { return op != query.Eq }
	// Correlated-subquery shape, either side.
	try := func(corr, other query.Value, theta query.CmpOp) (relPlan, bool) {
		s := corr.Sub
		if s == nil || !s.Correlated() || corr.Scale != 1 || len(s.Filters) > 0 || s.Nested != nil {
			return relPlan{}, false
		}
		if !inequality(theta) {
			return relPlan{}, false
		}
		if s.Kind != query.Sum && s.Kind != query.Count {
			return relPlan{}, false
		}
		if !uncorrelated(other) {
			return relPlan{}, false
		}
		inner, iok := s.Where.Inner.(query.Col)
		outer, ook := s.Where.Outer.(query.Col)
		if !iok || !ook || inner != outer {
			return relPlan{}, false
		}
		if s.Where.Op != query.Le && s.Where.Op != query.Ge && s.Where.Op != query.Lt && s.Where.Op != query.Gt {
			return relPlan{}, false
		}
		return relPlan{
			kind:           PredCorrelated,
			threshold:      other,
			thetaCorrFirst: theta,
			corr:           s,
			keyCol:         string(inner),
			subOp:          s.Where.Op,
		}, true
	}
	if plan, ok := try(p.Left, p.Right, p.Op); ok {
		return plan, nil
	}
	if plan, ok := try(p.Right, p.Left, p.Op.Flip()); ok {
		return plan, nil
	}
	// Column-vs-uncorrelated shape, either side.
	tryCol := func(colSide, other query.Value, theta query.CmpOp) (relPlan, bool) {
		if colSide.Sub != nil || !inequality(theta) {
			return relPlan{}, false
		}
		c, ok := colSide.Expr.(query.Col)
		if !ok || !uncorrelated(other) {
			return relPlan{}, false
		}
		return relPlan{
			kind:           PredColumn,
			threshold:      other,
			thetaCorrFirst: theta,
			keyCol:         string(c),
		}, true
	}
	if plan, ok := tryCol(p.Left, p.Right, p.Op); ok {
		return plan, nil
	}
	if plan, ok := tryCol(p.Right, p.Left, p.Op.Flip()); ok {
		return plan, nil
	}
	return relPlan{}, fmt.Errorf("predicate %s does not match the section 4.3 multi-relation shapes", p)
}

// MultiEvent is one update to one relation of a MultiQuery.
type MultiEvent struct {
	Rel   string
	X     float64
	Tuple query.Tuple
}

// MultiExecutor incrementally maintains a MultiQuery result.
type MultiExecutor interface {
	Apply(e MultiEvent)
	Result() float64
	Strategy() string
}

// --- incremental executor ---

// relBinding is one relation's plan bound to a schema: everything relState
// reads per event, shared by every relState of the plan.
type relBinding struct {
	plan   relPlan
	schema *query.Schema
	term   query.Bound
	// weight is the correlated aggregate's inner contribution (nil when it
	// counts, or under a column predicate); key the keyed column's slot.
	weight query.Bound
	key    int
	// thr binds the uncorrelated threshold subquery; thrConst is the literal
	// threshold when there is none.
	thr      *subBinding
	thrConst float64
	steer    rpai.Steer
	neg      bool
}

func bindRel(spec RelSpec, s *query.Schema) (*relBinding, error) {
	plan, err := classifyRelPred(spec.Pred)
	if err != nil {
		return nil, err
	}
	b := &relBinding{plan: plan, schema: s, term: query.Bind(spec.Term, s)}
	b.key, _ = s.Slot(plan.keyCol)
	if plan.threshold.Sub != nil {
		b.thr = bindSub(plan.threshold.Sub, s)
	} else {
		b.thrConst = plan.threshold.Expr.Eval(nil)
	}
	if plan.kind == PredCorrelated {
		if plan.corr.Kind == query.Sum {
			b.weight = query.Bind(plan.corr.Of, s)
		}
		switch plan.subOp {
		case query.Le, query.Ge:
			b.steer = rpai.SteerWeightThrough
		default:
			b.steer = rpai.SteerWeightBefore
		}
		b.neg = plan.subOp == query.Ge || plan.subOp == query.Gt
	}
	return b, nil
}

// bindRelOwn binds a relation to the schema of its own columns.
func bindRelOwn(spec RelSpec) (*relBinding, error) {
	cols := (&query.Query{Agg: spec.Term, Preds: []query.Predicate{spec.Pred}}).Columns()
	return bindRel(spec, query.NewSchema(cols...))
}

// relState maintains one relation's qualifying count and term sum.
type relState struct {
	b   *relBinding
	thr *subState // uncorrelated threshold subquery (nil for constants)

	// levels is the predicate's one index (the paper's Algorithm 4 keeps one
	// per correlated predicate): per level of keyCol, the summed inner weight,
	// the live-row count and the summed term.
	//
	// PredCorrelated: the correlated aggregate at a level — the RPAI key of
	// the paper — is the weight summed over the levels it ranges over, so it
	// is not stored; a threshold read steers by accumulated weight (b.steer).
	// <=/< correlations range over lower levels, so the tree is keyed by the
	// column; >=/> range over higher ones, so it is keyed by the negated
	// column (b.neg) and the same prefix read serves both orientations.
	//
	// PredColumn: the weight lane is unused and reads steer by key.
	levels *rpai.LevelTree

	// probeBounds, probeCnt and probeSum are probe's scratch (see probe.go).
	probeBounds, probeCnt, probeSum []float64
}

func newRelState(b *relBinding) *relState {
	rs := &relState{b: b, levels: rpai.NewLevelTree()}
	if b.thr != nil {
		rs.thr = newSubState(b.thr)
	}
	return rs
}

func (rs *relState) threshold() float64 {
	if rs.thr != nil {
		return rs.b.plan.threshold.Scale * rs.thr.eval(nil)
	}
	return rs.b.thrConst
}

// apply is one event: one descent of the level tree by the event's level,
// adding its weight, count and term (and inserting or deleting the level
// when it appears or empties). Under a correlated predicate this moves the
// correlated aggregate of every later level too — the range shift of the
// paper's Algorithm 4 — because those values are prefix sums of the weight
// lane.
func (rs *relState) apply(row []float64, x float64) {
	b := rs.b
	if rs.thr != nil {
		rs.thr.apply(row, x)
	}
	term := b.term(row)
	k := row[b.key]
	var w float64
	if b.plan.kind == PredCorrelated {
		w = 1
		if b.weight != nil {
			w = b.weight(row)
			if w <= 0 {
				panic("engine: multi-relation aggregate-index maintenance requires positive inner contributions")
			}
		}
		if b.neg {
			k = -k
		}
	}
	rs.levels.Add(k, x*w, x, x*term)
}

// applyTuple lays t out as a row of the relation's schema in *scratch and
// applies it: the multi-relation executor's map edge.
func (rs *relState) applyTuple(scratch **Rows, t query.Tuple, x float64) {
	r := edgeRows(rs.b.schema, scratch, []Event{{X: x, Tuple: t}})
	_, row := r.At(0)
	rs.apply(row, x)
}

// aggregates returns (count, term sum) over the qualifying subset.
func (rs *relState) aggregates() (cnt, sum float64) {
	return rs.read(rs.threshold())
}

// read returns (count, term sum) over the levels whose compared quantity
// qualifies against bound — the correlated aggregate (PredCorrelated) or the
// column (PredColumn) — in one descent. Lower values lead the order, so
// "below the bound" is a prefix read and "above it" the total minus one.
func (rs *relState) read(bound float64) (cnt, sum float64) {
	steer := rs.b.steer
	switch rs.b.plan.thetaCorrFirst {
	case query.Lt:
		return rs.levels.Prefix(steer, bound, true)
	case query.Le:
		return rs.levels.Prefix(steer, bound, false)
	case query.Gt:
		cnt, sum = rs.levels.Prefix(steer, bound, false)
	case query.Ge:
		cnt, sum = rs.levels.Prefix(steer, bound, true)
	default:
		panic("engine: equality thresholds are not part of the multi-relation shape")
	}
	_, tc, ts := rs.levels.Total()
	return tc - cnt, ts - sum
}

// MultiAggIndexExec is the incremental multi-relation executor.
type MultiAggIndexExec struct {
	q    *MultiQuery
	rels map[string]*relState
	edge *Rows // the map edge's row scratch
}

// NewMultiAggIndex builds the incremental executor for a multi-relation
// query, or reports why the query is outside the supported shape.
func NewMultiAggIndex(q *MultiQuery) (*MultiAggIndexExec, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ex := &MultiAggIndexExec{q: q, rels: make(map[string]*relState, len(q.Rels))}
	for _, spec := range q.Rels {
		b, err := bindRelOwn(spec)
		if err != nil {
			return nil, err
		}
		ex.rels[spec.Name] = newRelState(b)
	}
	return ex, nil
}

// Strategy implements MultiExecutor.
func (ex *MultiAggIndexExec) Strategy() string { return "aggindex" }

// Apply implements MultiExecutor.
func (ex *MultiAggIndexExec) Apply(e MultiEvent) {
	rs, ok := ex.rels[e.Rel]
	if !ok {
		panic("engine: event for unknown relation " + e.Rel)
	}
	rs.applyTuple(&ex.edge, e.Tuple, e.X)
}

// Result implements MultiExecutor.
func (ex *MultiAggIndexExec) Result() float64 {
	cnts := make([]float64, len(ex.q.Rels))
	sums := make([]float64, len(ex.q.Rels))
	for i, spec := range ex.q.Rels {
		cnts[i], sums[i] = ex.rels[spec.Name].aggregates()
	}
	if ex.q.Combine == query.OpMul {
		res := 1.0
		for _, s := range sums {
			res *= s
		}
		return res
	}
	var res float64
	for i, s := range sums {
		contrib := s
		for j, c := range cnts {
			if j != i {
				contrib *= c
			}
		}
		res += contrib
	}
	return res
}

// MultiNaiveExec re-evaluates the multi-relation query from live tuple sets;
// it is the correctness oracle for MultiAggIndexExec.
type MultiNaiveExec struct {
	q    *MultiQuery
	live map[string][]query.Tuple
}

// NewMultiNaive returns the re-evaluation executor.
func NewMultiNaive(q *MultiQuery) (*MultiNaiveExec, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &MultiNaiveExec{q: q, live: map[string][]query.Tuple{}}, nil
}

// Strategy implements MultiExecutor.
func (ex *MultiNaiveExec) Strategy() string { return "naive" }

// Apply implements MultiExecutor.
func (ex *MultiNaiveExec) Apply(e MultiEvent) {
	if e.X > 0 {
		ex.live[e.Rel] = append(ex.live[e.Rel], e.Tuple)
		return
	}
	l := ex.live[e.Rel]
	for i := range l {
		if tupleEqual(l[i], e.Tuple) {
			l[i] = l[len(l)-1]
			ex.live[e.Rel] = l[:len(l)-1]
			return
		}
	}
}

// Result implements MultiExecutor. Per-relation qualification is evaluated
// per tuple by scanning the relation (the correlated subqueries re-run from
// scratch), then the factored combination is applied.
func (ex *MultiNaiveExec) Result() float64 {
	cnts := make([]float64, len(ex.q.Rels))
	sums := make([]float64, len(ex.q.Rels))
	for i, spec := range ex.q.Rels {
		n := &NaiveExec{
			q:    &query.Query{Agg: spec.Term, Preds: []query.Predicate{spec.Pred}},
			live: ex.live[spec.Name],
		}
		sums[i] = n.Result()
		cq := &NaiveExec{
			q:    &query.Query{Agg: query.Const(1), Preds: []query.Predicate{spec.Pred}},
			live: ex.live[spec.Name],
		}
		cnts[i] = cq.Result()
	}
	if ex.q.Combine == query.OpMul {
		res := 1.0
		for _, s := range sums {
			res *= s
		}
		return res
	}
	var res float64
	for i, s := range sums {
		contrib := s
		for j, c := range cnts {
			if j != i {
				contrib *= c
			}
		}
		res += contrib
	}
	return res
}
