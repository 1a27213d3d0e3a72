// Package engine executes the aggregate-query fragment of package query
// under three strategies:
//
//   - Naive: full re-evaluation over the live tuple set,
//   - General: the paper's general incrementalization algorithm (section
//     4.2, Algorithm 3) — per-subquery bound maps plus result maps grouped
//     by the outer columns the predicates read,
//   - AggIndex: the aggregate-index optimization (section 4.3, Algorithm 4)
//     for queries matching the PlanAggIndex pattern — a PAI map for
//     equality correlations (AggIndexExec), one level tree per predicate for
//     inequality correlations and column predicates (relStateExec): an RPAI
//     on the arena whose keys, the correlated aggregates, are held as
//     weight-lane prefix sums instead of being stored and shifted. These are
//     the only index structures the engine builds.
//
// New picks the best applicable strategy, mirroring the identification step
// the paper describes for a query optimizer (section 4.3.1). The hand-tuned
// per-query executors in package queries remain the benchmark subjects; this
// engine demonstrates that the same algorithms apply to arbitrary queries in
// the supported fragment, and the tests cross-check it against both the
// naive executor and the hand-written ones.
package engine

import (
	"sort"

	"rpai/internal/paimap"
	"rpai/internal/query"
	"rpai/internal/treemap"
)

// Event is one update to the streamed relation: X is +1 for insert, -1 for
// delete.
type Event struct {
	X     float64
	Tuple query.Tuple
}

// Insert builds an insertion event.
func Insert(t query.Tuple) Event { return Event{X: 1, Tuple: t} }

// Delete builds a deletion event retracting a previously inserted tuple.
func Delete(t query.Tuple) Event { return Event{X: -1, Tuple: t} }

// Executor incrementally maintains a query result over events.
type Executor interface {
	// Apply processes one event.
	Apply(e Event)
	// Result returns the current query output.
	Result() float64
	// Strategy names the execution strategy.
	Strategy() string
}

// New returns the best incremental executor for the query: the aggregate-
// index strategy when the section 4.3 pattern applies (equality correlations
// via PAI point moves; <=, <, >=, > correlations and column-vs-aggregate
// predicates via the level tree, where a range shift is one weight-lane
// update), the general algorithm
// otherwise. It returns an error for queries outside the maintainable
// fragment (section 4.2.5).
func New(q *query.Query) (Executor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.GroupBy) == 0 && len(q.Preds) == 1 {
		// The PAI equality executor maintains only the summed aggregate, so it
		// serves SUM outers; COUNT and AVG need the count side relState keeps.
		if plan, ok := q.PlanAggIndex(); ok && plan.SubOp == query.Eq && q.Outer == query.Sum {
			return newAggIndexExec(q, plan), nil
		}
		if noNested(q) {
			if rs, err := newRelState(RelSpec{Name: "R", Term: q.Agg, Pred: q.Preds[0]}); err == nil {
				return &relStateExec{rs: rs, outer: q.Outer}, nil
			}
		}
	}
	return NewGeneral(q)
}

func noNested(q *query.Query) bool {
	for _, s := range q.Subqueries() {
		if s.Nested != nil {
			return false
		}
	}
	return true
}

// relStateExec adapts the multi-relation per-relation machinery (all four
// inequality orientations plus column predicates) to single-relation
// queries. The relState is the StateSet half (its level tree maintains both
// a count and a term lane regardless of the outer aggregate); the outer kind is the
// probe half, deciding which side(s) Result reads: the term sum for SUM, the
// count for COUNT, their quotient for AVG.
type relStateExec struct {
	rs    *relState
	outer query.AggKind
	probe probeScratch
}

// Strategy implements Executor. "relstate" names the range-shift executor
// over shared relation state, distinguishing it from the PAI point-move
// "aggindex" path in EXPLAIN and the benches.
func (ex *relStateExec) Strategy() string { return "relstate" }

// Apply implements Executor.
func (ex *relStateExec) Apply(e Event) { ex.rs.apply(e.Tuple, e.X) }

// Result implements Executor.
func (ex *relStateExec) Result() float64 {
	cnt, sum := ex.rs.aggregates()
	return finishAgg(ex.outer, sum, cnt)
}

// --- Naive ---

// NaiveExec re-evaluates the query from scratch on every Result call.
type NaiveExec struct {
	q    *query.Query
	live []query.Tuple
}

// NewNaive returns the re-evaluation executor (the correctness oracle).
func NewNaive(q *query.Query) *NaiveExec { return &NaiveExec{q: q} }

// Strategy implements Executor.
func (n *NaiveExec) Strategy() string { return "naive" }

// Apply implements Executor.
func (n *NaiveExec) Apply(e Event) {
	if e.X > 0 {
		n.live = append(n.live, e.Tuple)
		return
	}
	for i := range n.live {
		if tupleEqual(n.live[i], e.Tuple) {
			n.live[i] = n.live[len(n.live)-1]
			n.live = n.live[:len(n.live)-1]
			return
		}
	}
}

// Result implements Executor.
func (n *NaiveExec) Result() float64 {
	var res, cnt float64
	for _, t := range n.live {
		ok := true
		for _, p := range n.q.Preds {
			if !p.Op.Compare(n.evalValue(p.Left, t), n.evalValue(p.Right, t)) {
				ok = false
				break
			}
		}
		if ok {
			res += n.q.Agg.Eval(t)
			cnt++
		}
	}
	return finishAgg(n.q.Outer, res, cnt)
}

func (n *NaiveExec) evalValue(v query.Value, outer query.Tuple) float64 {
	if v.Sub == nil {
		return v.Expr.Eval(outer)
	}
	s := v.Sub
	var sum, cnt float64
	for _, u := range n.live {
		if !s.MatchFilters(u) {
			continue
		}
		if s.Where != nil && !s.Where.Op.Compare(s.Where.Inner.Eval(u), s.Where.Outer.Eval(outer)) {
			continue
		}
		if s.Nested != nil && !n.nestedHolds(s.Nested, u, outer) {
			continue
		}
		cnt++
		if s.Kind != query.Count {
			sum += s.Of.Eval(u)
		}
	}
	return v.Scale * finishAgg(s.Kind, sum, cnt)
}

// nestedHolds evaluates a second-level nested condition for middle tuple u
// by re-scanning the live set (the re-evaluation semantics the incremental
// engines are checked against).
func (n *NaiveExec) nestedHolds(nc *query.NestedCond, u, outer query.Tuple) bool {
	var thr float64
	if t := nc.Threshold; t.Sub != nil {
		var s float64
		for _, w := range n.live {
			if !t.Sub.MatchFilters(w) {
				continue
			}
			if t.Sub.Where != nil && !t.Sub.Where.Op.Compare(t.Sub.Where.Inner.Eval(w), t.Sub.Where.Outer.Eval(outer)) {
				continue
			}
			s += t.Sub.Of.Eval(w)
		}
		thr = t.Scale * s
	} else {
		thr = t.Expr.Eval(nil)
	}
	var inner float64
	uCol := u[nc.Col]
	for _, w := range n.live {
		if !nc.Inner.MatchFilters(w) {
			continue
		}
		if w[nc.Col] <= uCol {
			inner += nc.Inner.Of.Eval(w)
		}
	}
	return nc.Op.Compare(thr, inner)
}

func finishAgg(k query.AggKind, sum, cnt float64) float64 {
	switch k {
	case query.Sum:
		return sum
	case query.Count:
		return cnt
	case query.Avg:
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	}
	panic("engine: unsupported aggregate kind " + k.String())
}

func tupleEqual(a, b query.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// --- General algorithm (section 4.2) ---

// subState is the maintained state of one nested subquery: scalar
// accumulators when uncorrelated, sum/count trees keyed by the inner
// predicate expression when correlated (the bound maps of Algorithm 3; the
// free-map lookups of the paper become prefix/suffix queries on these
// trees).
type subState struct {
	sub     *query.Subquery
	sumTree *treemap.Tree // inner-expr value -> sum(Of)
	cntTree *treemap.Tree // inner-expr value -> count
	sum     float64       // uncorrelated accumulators
	cnt     float64

	// Two-level nesting state (sub.Nested != nil): wTree holds the innermost
	// weights keyed by the shared column; thrTree/thrSum hold the threshold
	// aggregate (tree when outer-correlated, scalar otherwise).
	wTree   *treemap.Tree
	thrTree *treemap.Tree
	thrSum  float64
}

func newSubState(s *query.Subquery) *subState {
	st := &subState{sub: s}
	if s.Correlated() {
		st.sumTree = treemap.New()
		st.cntTree = treemap.New()
	}
	if s.Nested != nil {
		st.wTree = treemap.New()
		if t := s.Nested.Threshold; t.Sub != nil && t.Sub.Where != nil {
			st.thrTree = treemap.New()
		}
	}
	return st
}

// apply folds a tuple (in its inner role) into the subquery state.
func (st *subState) apply(t query.Tuple, x float64) {
	s := st.sub
	if nc := s.Nested; nc != nil {
		// The innermost and threshold aggregates range over every tuple,
		// regardless of the middle level's filters.
		if nc.Inner.MatchFilters(t) {
			st.wTree.Add(t[nc.Col], x*nc.Inner.Of.Eval(t))
			if w, _ := st.wTree.Get(t[nc.Col]); w == 0 {
				st.wTree.Delete(t[nc.Col])
			}
		}
		if ts := nc.Threshold.Sub; ts != nil && ts.MatchFilters(t) {
			if st.thrTree != nil {
				st.thrTree.Add(t[nc.Col], x*ts.Of.Eval(t))
				if v, _ := st.thrTree.Get(t[nc.Col]); v == 0 {
					st.thrTree.Delete(t[nc.Col])
				}
			} else {
				st.thrSum += x * ts.Of.Eval(t)
			}
		}
	}
	if !s.MatchFilters(t) {
		return
	}
	if !s.Correlated() {
		// An uncorrelated filter (outer side without columns) is a constant
		// condition on the inner tuple.
		if s.Where != nil && !s.Where.Op.Compare(s.Where.Inner.Eval(t), s.Where.Outer.Eval(nil)) {
			return
		}
		st.cnt += x
		if s.Kind != query.Count {
			st.sum += x * s.Of.Eval(t)
		}
		return
	}
	k := s.Where.Inner.Eval(t)
	st.cntTree.Add(k, x)
	if s.Kind != query.Count {
		st.sumTree.Add(k, x*s.Of.Eval(t))
	}
	if c, _ := st.cntTree.Get(k); c == 0 {
		st.cntTree.Delete(k)
		st.sumTree.Delete(k)
	}
}

// eval returns the subquery's aggregate for an outer tuple.
func (st *subState) eval(outer query.Tuple) float64 {
	s := st.sub
	if s.Nested != nil {
		return st.evalNested(outer)
	}
	if !s.Correlated() {
		return finishAgg(s.Kind, st.sum, st.cnt)
	}
	ov := s.Where.Outer.Eval(outer)
	var sum, cnt float64
	switch s.Where.Op {
	case query.Le:
		sum, cnt = st.sumTree.PrefixSum(ov), st.cntTree.PrefixSum(ov)
	case query.Lt:
		sum, cnt = st.sumTree.PrefixSumLess(ov), st.cntTree.PrefixSumLess(ov)
	case query.Ge:
		sum, cnt = st.sumTree.SuffixSum(ov), st.cntTree.SuffixSum(ov)
	case query.Gt:
		sum, cnt = st.sumTree.SuffixSumGreater(ov), st.cntTree.SuffixSumGreater(ov)
	case query.Eq:
		s1, _ := st.sumTree.Get(ov)
		c1, _ := st.cntTree.Get(ov)
		sum, cnt = s1, c1
	}
	return finishAgg(s.Kind, sum, cnt)
}

// evalNested evaluates a two-level subquery for an outer tuple in O(log n):
// middle tuples qualify when the innermost weight prefix at their column
// value exceeds the threshold; since that prefix is monotone in the column,
// the qualifying set is the contiguous range [qstar, outer bound] and the
// middle sum is a difference of two prefix sums (the NQ1/NQ2 evaluation of
// section 5.2.1).
func (st *subState) evalNested(outer query.Tuple) float64 {
	s := st.sub
	nc := s.Nested
	ov := s.Where.Outer.Eval(outer)
	var thr float64
	switch {
	case st.thrTree != nil:
		thr = nc.Threshold.Scale * st.thrTree.PrefixSum(nc.Threshold.Sub.Where.Outer.Eval(outer))
	case nc.Threshold.Sub != nil:
		thr = nc.Threshold.Scale * st.thrSum
	default:
		thr = nc.Threshold.Expr.Eval(nil)
	}
	qstar, ok := st.wTree.FirstPrefixGreater(thr)
	if !ok || qstar > ov {
		return 0
	}
	return st.sumTree.PrefixSum(ov) - st.sumTree.PrefixSumLess(qstar)
}

// group is one result-map entry: outer tuples sharing the values of all
// predicate-referenced outer columns.
type group struct {
	vals []float64
	agg  float64
	cnt  float64
}

// GeneralExec is the general incrementalization algorithm: O(log n) per
// event to maintain the maps, O(groups * log n) to recompute the result.
type GeneralExec struct {
	q         *query.Query
	groupCols []string
	subs      map[*query.Subquery]*subState
	groups    map[string]*group
}

// NewGeneral returns the general-algorithm executor, or an error if the
// query contains non-streamable nested aggregates.
func NewGeneral(q *query.Query) (*GeneralExec, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	g := &GeneralExec{
		q:         q,
		groupCols: unionCols(q.OuterCols(), q.GroupBy),
		subs:      make(map[*query.Subquery]*subState),
		groups:    make(map[string]*group),
	}
	for _, s := range q.Subqueries() {
		g.subs[s] = newSubState(s)
	}
	return g, nil
}

// Strategy implements Executor.
func (g *GeneralExec) Strategy() string { return "general" }

// Apply implements Executor.
func (g *GeneralExec) Apply(e Event) {
	for _, st := range g.subs {
		st.apply(e.Tuple, e.X)
	}
	key, vals := g.groupKey(e.Tuple)
	gr := g.groups[key]
	if gr == nil {
		gr = &group{vals: vals}
		g.groups[key] = gr
	}
	gr.agg += e.X * g.q.Agg.Eval(e.Tuple)
	gr.cnt += e.X
	if gr.cnt == 0 {
		delete(g.groups, key)
	}
}

func unionCols(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range [][]string{a, b} {
		for _, c := range s {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (g *GeneralExec) groupKey(t query.Tuple) (string, []float64) {
	return groupProjection(g.groupCols, t)
}

// Result implements Executor.
func (g *GeneralExec) Result() float64 {
	outer := make(query.Tuple, len(g.groupCols))
	var res, cnt float64
	for _, gr := range g.groups {
		for i, c := range g.groupCols {
			outer[c] = gr.vals[i]
		}
		ok := true
		for _, p := range g.q.Preds {
			if !p.Op.Compare(g.evalValue(p.Left, outer), g.evalValue(p.Right, outer)) {
				ok = false
				break
			}
		}
		if ok {
			res += gr.agg
			cnt += gr.cnt
		}
	}
	return finishAgg(g.q.Outer, res, cnt)
}

func (g *GeneralExec) evalValue(v query.Value, outer query.Tuple) float64 {
	if v.Sub == nil {
		return v.Expr.Eval(outer)
	}
	return v.Scale * g.subs[v.Sub].eval(outer)
}

// --- Aggregate-index optimization (section 4.3), equality correlations ---

// AggIndexExec executes an equality-correlated query (paper Example 2.1) with
// a PAI map keyed by the correlated subquery's value: each event is an O(1)
// point move of its level's portion between two keys. Inequality correlations
// run on relStateExec.
type AggIndexExec struct {
	q    *query.Query
	plan query.AggIndexPlan
	// threshold side (uncorrelated): scalar subquery state or constant.
	thr *subState
	// byKey maps the correlation column to the level's summed Of values;
	// cntAt counts live tuples per level (for cleanup).
	byKey *treemap.Tree
	cntAt map[float64]float64
	// agg is the aggregate index: correlated-aggregate value -> sum(Agg).
	agg *paimap.Map
	// groups tracks each level's summed outer aggregate (the portion to move
	// between index keys).
	groups map[float64]float64
	// moveBuf backs the deferred point moves of ApplyBatch so steady-state
	// batches allocate nothing.
	moveBuf []paimap.MoveOp
}

func newAggIndexExec(q *query.Query, plan query.AggIndexPlan) *AggIndexExec {
	ex := &AggIndexExec{
		q:      q,
		plan:   plan,
		byKey:  treemap.New(),
		cntAt:  make(map[float64]float64),
		agg:    paimap.New(),
		groups: make(map[float64]float64),
	}
	if plan.Threshold.Sub != nil {
		ex.thr = newSubState(plan.Threshold.Sub)
	}
	return ex
}

// Strategy implements Executor.
func (ex *AggIndexExec) Strategy() string { return "aggindex" }

// contribution is the tuple's inner-side weight in the correlated aggregate.
func (ex *AggIndexExec) contribution(t query.Tuple) float64 {
	if ex.plan.Corr.Kind == query.Count {
		return 1
	}
	return ex.plan.Corr.Of.Eval(t)
}

// Apply implements Executor: a batch of one (see ApplyBatch).
func (ex *AggIndexExec) Apply(e Event) { ex.ApplyBatch([]Event{e}) }

// Result implements Executor.
func (ex *AggIndexExec) Result() float64 {
	var thr float64
	if ex.thr != nil {
		thr = ex.plan.Threshold.Scale * ex.thr.eval(nil)
	} else {
		thr = ex.plan.Threshold.Expr.Eval(nil)
	}
	return ex.read(thr)
}

// read sums the index entries whose key qualifies against thr.
func (ex *AggIndexExec) read(thr float64) float64 {
	switch ex.plan.ThetaCorrFirst {
	case query.Lt:
		return ex.agg.GetSumLess(thr)
	case query.Le:
		return ex.agg.GetSum(thr)
	case query.Gt:
		return ex.agg.Total() - ex.agg.GetSum(thr)
	case query.Ge:
		return ex.agg.Total() - ex.agg.GetSumLess(thr)
	case query.Eq:
		v, _ := ex.agg.Get(thr)
		return v
	}
	panic("engine: unknown comparison " + ex.plan.ThetaCorrFirst.String())
}
