package engine

import (
	"fmt"

	"rpai/internal/query"
	"rpai/internal/rpai"
	"rpai/internal/treemap"
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

// relState maintains one relation's qualifying count and term sum.
type relState struct {
	spec RelSpec
	plan relPlan
	thr  *subState // uncorrelated threshold subquery (nil for constants)

	// PredCorrelated state: byKey maps the correlation column to summed
	// weights. The count and term aggregate indexes, both keyed by the
	// correlated aggregate value, always hold the same key set (same
	// shifts, same Add key, deleted together), so they are the two lanes of
	// one tree: idx lane 0 is the count, lane 1 the term sum — one index per
	// correlated predicate, as in the paper's Algorithm 4.
	byKey *treemap.Tree
	idx   *rpai.ArenaPair

	// PredColumn state: count and term sums keyed by the compared column.
	cntByCol  *treemap.Tree
	termByCol *treemap.Tree

	// probeKeys and probeOut are probeFan's scratch (see probe.go).
	probeKeys, probeOut []float64
}

func newRelState(spec RelSpec) (*relState, error) {
	plan, err := classifyRelPred(spec.Pred)
	if err != nil {
		return nil, err
	}
	rs := &relState{spec: spec, plan: plan}
	if plan.threshold.Sub != nil {
		rs.thr = newSubState(plan.threshold.Sub)
	}
	switch plan.kind {
	case PredCorrelated:
		rs.byKey = treemap.New()
		rs.idx = rpai.NewArenaPair()
	case PredColumn:
		rs.cntByCol = treemap.New()
		rs.termByCol = treemap.New()
	}
	return rs, nil
}

func (rs *relState) threshold() float64 {
	if rs.thr != nil {
		return rs.plan.threshold.Scale * rs.thr.eval(nil)
	}
	return rs.plan.threshold.Expr.Eval(nil)
}

func (rs *relState) apply(t query.Tuple, x float64) {
	if rs.thr != nil {
		rs.thr.apply(t, x)
	}
	term := rs.spec.Term.Eval(t)
	k := t[rs.plan.keyCol]
	switch rs.plan.kind {
	case PredColumn:
		rs.cntByCol.Add(k, x)
		rs.termByCol.Add(k, x*term)
		if c, _ := rs.cntByCol.Get(k); c == 0 {
			rs.cntByCol.Delete(k)
			rs.termByCol.Delete(k)
		}
	case PredCorrelated:
		w := 1.0
		if rs.plan.corr.Kind == query.Sum {
			w = rs.plan.corr.Of.Eval(t)
			if w <= 0 {
				panic("engine: multi-relation aggregate-index maintenance requires positive inner contributions")
			}
		}
		// Orient by the correlation operator: <=/< index prefix sums of the
		// weights (VWAP orientation), >=/> index suffix sums (MST
		// orientation). One byKey descent yields that sum as it stood before
		// this event and the level's weight before it, and applies the
		// update.
		op := rs.plan.subOp
		strict := op == query.Lt || op == query.Gt
		var rhs, volAt float64
		if op == query.Le || op == query.Lt {
			rhs, volAt, _ = rs.byKey.AddPrefix(k, x*w, strict)
		} else {
			rhs, volAt, _ = rs.byKey.AddSuffix(k, x*w, strict)
		}
		// The shift boundary mirrors the single-relation executors in package
		// queries. Inclusive orientations (<=, >=) count the level's own
		// weight in its key, so the boundary sits just below it. Strict ones
		// exclude it; a fresh level can then share a key with its neighbour,
		// which requires the inclusive shift.
		if strict {
			rs.shiftAdd(rhs, !(volAt > 0), x*w, rhs, x, x*term)
		} else {
			rs.shiftAdd(rhs-volAt, false, x*w, rhs+x*w, x, x*term)
		}
	}
}

// shiftAdd is the aggregate-index half of one event: shift the keys above at
// (from at, when inclusive) by d, then add (dc, dt) to the count and term
// under key, dropping the key when its count returns to zero.
func (rs *relState) shiftAdd(at float64, inclusive bool, d, key, dc, dt float64) {
	p := rs.idx
	if inclusive {
		p.ShiftKeysInclusive(at, d)
	} else {
		p.ShiftKeys(at, d)
	}
	if c, _ := p.Add(key, dc, dt); c == 0 {
		p.Delete(key)
	}
}

// aggregates returns (count, term sum) over the qualifying subset.
func (rs *relState) aggregates() (cnt, sum float64) {
	thr := rs.threshold()
	if rs.plan.kind == PredColumn {
		return rs.colSum(rs.cntByCol, thr), rs.colSum(rs.termByCol, thr)
	}
	// Both lanes from one descent.
	p := rs.idx
	switch rs.plan.thetaCorrFirst {
	case query.Lt:
		return p.GetSumLess(thr)
	case query.Le:
		return p.GetSum(thr)
	case query.Gt:
		return p.SuffixSumGreater(thr)
	case query.Ge:
		return p.SuffixSum(thr)
	}
	panic("engine: equality thresholds are not part of the multi-relation shape")
}

// colSum is the qualifying sum of one PredColumn tree at threshold thr.
func (rs *relState) colSum(t *treemap.Tree, thr float64) float64 {
	switch rs.plan.thetaCorrFirst {
	case query.Lt:
		return t.PrefixSumLess(thr)
	case query.Le:
		return t.PrefixSum(thr)
	case query.Gt:
		return t.SuffixSumGreater(thr)
	case query.Ge:
		return t.SuffixSum(thr)
	}
	panic("engine: equality thresholds are not part of the multi-relation shape")
}

// MultiAggIndexExec is the incremental multi-relation executor.
type MultiAggIndexExec struct {
	q    *MultiQuery
	rels map[string]*relState
}

// NewMultiAggIndex builds the incremental executor for a multi-relation
// query, or reports why the query is outside the supported shape.
func NewMultiAggIndex(q *MultiQuery) (*MultiAggIndexExec, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ex := &MultiAggIndexExec{q: q, rels: make(map[string]*relState, len(q.Rels))}
	for _, spec := range q.Rels {
		rs, err := newRelState(spec)
		if err != nil {
			return nil, err
		}
		ex.rels[spec.Name] = rs
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
	rs.apply(e.Tuple, e.X)
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
