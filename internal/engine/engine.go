// Package engine executes the aggregate-query fragment of package query
// under three strategies:
//
//   - Naive: full re-evaluation over the live tuple set,
//   - General: the paper's general incrementalization algorithm (section
//     4.2, Algorithm 3) — per-subquery bound maps, each a level tree keyed by
//     the inner predicate expression, plus result maps grouped by the outer
//     columns the predicates read,
//   - AggIndex: the aggregate-index optimization (section 4.3, Algorithm 4)
//     for queries matching the PlanAggIndex pattern — a PAI map for
//     equality correlations (AggIndexExec), one level tree per predicate for
//     inequality correlations and column predicates (relStateExec): an RPAI
//     on the arena whose keys, the correlated aggregates, are held as
//     weight-lane prefix sums instead of being stored and shifted. The level
//     tree and the PAI map are the only index structures the engine builds.
//
// New picks the best applicable strategy, mirroring the identification step
// the paper describes for a query optimizer (section 4.3.1). The hand-tuned
// per-query executors in package queries remain the benchmark subjects; this
// engine demonstrates that the same algorithms apply to arbitrary queries in
// the supported fragment, and the tests cross-check it against both the
// naive executor and the hand-written ones.
//
// Events reach the incremental executors as rows: Prepare plans a query
// once and binds every expression its executors evaluate per event to the
// slots of a query.Schema, RowDecoder decodes event payloads straight into
// Rows under that schema, and RowExecutor.ApplyRows applies them — no tuple
// map, no column-name hashing. Reads are bound too: the general algorithm
// evaluates its predicates on each result group's projected values. The map
// API (Event, Apply, ApplyBatch, EncodeEvent, EventDecoder) is the edge: it
// lays tuples out as rows and takes the same path. NaiveExec, the oracle,
// stays on maps.
package engine

import (
	"slices"

	"rpai/internal/paimap"
	"rpai/internal/query"
	"rpai/internal/rpai"
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
// fragment (section 4.2.5). The executor is bound to the schema of the
// query's own columns (see Prepare); a caller building many executors of one
// query prepares it once instead.
func New(q *query.Query) (Executor, error) {
	p, err := prepareOwn(q)
	if err != nil {
		return nil, err
	}
	return p.New(), nil
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
	edge  *Rows
}

// Strategy implements Executor. "relstate" names the range-shift executor
// over shared relation state, distinguishing it from the PAI point-move
// "aggindex" path in EXPLAIN and the benches.
func (ex *relStateExec) Strategy() string { return "relstate" }

// Apply implements Executor.
func (ex *relStateExec) Apply(e Event) { ex.ApplyBatch([]Event{e}) }

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
		if n.qualifies(t) {
			res += n.q.Agg.Eval(t)
			cnt++
		}
	}
	return finishAgg(n.q.Outer, res, cnt)
}

// qualifies reports whether the live tuple t passes every predicate.
func (n *NaiveExec) qualifies(t query.Tuple) bool {
	for _, p := range n.q.Preds {
		if !p.Op.Compare(n.evalValue(p.Left, t), n.evalValue(p.Right, t)) {
			return false
		}
	}
	return true
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
// accumulators when uncorrelated, else a level tree keyed by the inner
// predicate expression (the bound maps of Algorithm 3, read by key-steered
// prefixes) whose count lane counts each level's live rows and whose term
// lane sums their Of (0 under COUNT); a level leaves when its count is 0.
type subState struct {
	b      *subBinding
	levels *rpai.LevelTree
	sum    float64 // uncorrelated accumulators
	cnt    float64

	// Two-level nesting state (sub.Nested != nil): wTree holds the innermost
	// weights keyed by the shared column, each in the weight lane the
	// threshold seek steers by and in the count lane, so a level leaves when
	// its weight returns to 0; thrTree (the sum in its count lane) or thrSum
	// holds the threshold aggregate, a tree when outer-correlated.
	wTree   *rpai.LevelTree
	thrTree *rpai.LevelTree
	thrSum  float64
}

func newSubState(b *subBinding) *subState {
	st := &subState{b: b}
	if b.correlated {
		st.levels = rpai.NewLevelTree()
	}
	if nb := b.nested; nb != nil {
		st.wTree = rpai.NewLevelTree()
		if nb.thrTree {
			st.thrTree = rpai.NewLevelTree()
		}
	}
	return st
}

// apply folds a row (in its inner role) into the subquery state.
func (st *subState) apply(row []float64, x float64) {
	b := st.b
	if nb := b.nested; nb != nil {
		// The innermost and threshold aggregates range over every tuple,
		// regardless of the middle level's filters.
		col := row[nb.col]
		if matchAll(nb.innerFilters, row) {
			w := x * nb.innerOf(row)
			st.wTree.Add(col, w, w, 0)
		}
		if nb.thrOf != nil && matchAll(nb.thrFilters, row) {
			if st.thrTree != nil {
				st.thrTree.Add(col, 0, x*nb.thrOf(row), 0)
			} else {
				st.thrSum += x * nb.thrOf(row)
			}
		}
	}
	if !matchAll(b.filters, row) {
		return
	}
	s := b.sub
	if !b.correlated {
		// An uncorrelated filter (outer side without columns) is a constant
		// condition on the inner tuple.
		if b.inner != nil && !s.Where.Op.Compare(b.inner(row), b.outerConst) {
			return
		}
		st.cnt += x
		if s.Kind != query.Count {
			st.sum += x * b.of(row)
		}
		return
	}
	var term float64
	if s.Kind != query.Count {
		term = x * b.of(row)
	}
	st.levels.Add(b.inner(row), 0, x, term)
}

// eval returns the subquery's aggregate for the outer values vals, a
// group's projection onto genBinding.groupCols (nil for an uncorrelated
// subquery, which reads none).
func (st *subState) eval(vals []float64) float64 {
	b := st.b
	s := b.sub
	if b.nested != nil {
		return st.evalNested(vals)
	}
	if !b.correlated {
		return finishAgg(s.Kind, st.sum, st.cnt)
	}
	ov := b.outer(vals)
	var cnt, sum float64
	switch op := s.Where.Op; op {
	case query.Le, query.Lt:
		cnt, sum = st.levels.Prefix(rpai.SteerKey, ov, op == query.Lt)
	case query.Ge, query.Gt:
		// The levels at or above ov: the total less those below it.
		c, t := st.levels.Prefix(rpai.SteerKey, ov, op == query.Ge)
		_, tc, tt := st.levels.Total()
		cnt, sum = tc-c, tt-t
	case query.Eq:
		cnt, sum = st.levels.Get(ov)
	}
	return finishAgg(s.Kind, sum, cnt)
}

// evalNested evaluates a two-level subquery for a group in O(log n): middle
// tuples qualify when the innermost weight prefix at their column value
// exceeds the threshold; since that prefix is monotone in the column, the
// qualifying set is the contiguous range [qstar, outer bound] and the middle
// sum is a difference of two prefix sums (the NQ1/NQ2 evaluation of section
// 5.2.1).
func (st *subState) evalNested(vals []float64) float64 {
	nb, scale := st.b.nested, st.b.sub.Nested.Threshold.Scale
	ov := st.b.outer(vals)
	thr := nb.thrConst
	switch {
	case st.thrTree != nil:
		s, _ := st.thrTree.Prefix(rpai.SteerKey, nb.thrOuter(vals), false)
		thr = scale * s
	case nb.thrOf != nil:
		thr = scale * st.thrSum
	}
	qstar, ok := st.wTree.Seek(rpai.SteerWeightThrough, thr)
	if !ok || qstar > ov {
		return 0
	}
	_, hi := st.levels.Prefix(rpai.SteerKey, ov, false)
	_, lo := st.levels.Prefix(rpai.SteerKey, qstar, true)
	return hi - lo
}

// group is one result-map entry: outer tuples sharing the values of all
// predicate-referenced outer columns.
type group struct {
	vals []float64
	agg  float64
	cnt  float64
}

// genBinding is the general algorithm's plan bound to a schema: the
// subquery states' writes and reads, the result-map projection, the
// aggregate term and the predicate sides. Every read takes a group's
// projection onto groupCols: no tuple, no column name.
type genBinding struct {
	q          *query.Query
	schema     *query.Schema
	groupCols  []string
	groupSlots []int
	agg        query.Bound
	subs       []*subBinding  // in q.Subqueries() order
	sides      [][2]boundSide // each of q.Preds' left and right side
	// groupBy holds the position in groupCols of each q.GroupBy column.
	groupBy []int
}

// boundSide is one predicate side: Scale times subquery sub's aggregate, or
// (sub < 0) the expression expr.
type boundSide struct {
	sub   int
	scale float64
	expr  query.Bound
}

func bindGeneral(q *query.Query, s *query.Schema) *genBinding {
	b := &genBinding{
		q:         q,
		schema:    s,
		groupCols: unionCols(q.OuterCols(), q.GroupBy),
		agg:       query.Bind(q.Agg, s),
	}
	gs := query.NewSchema(b.groupCols...)
	for _, c := range b.groupCols {
		slot, _ := s.Slot(c)
		b.groupSlots = append(b.groupSlots, slot)
	}
	for _, c := range q.GroupBy {
		pos, _ := gs.Slot(c)
		b.groupBy = append(b.groupBy, pos)
	}
	subs := q.Subqueries()
	for _, sq := range subs {
		sb := bindSub(sq, s)
		// The outer sides of correlations read a group's projection.
		if sq.Where != nil {
			sb.outer = query.Bind(sq.Where.Outer, gs)
		}
		if nb := sb.nested; nb != nil && nb.thrTree {
			nb.thrOuter = query.Bind(sq.Nested.Threshold.Sub.Where.Outer, gs)
		}
		b.subs = append(b.subs, sb)
	}
	side := func(v query.Value) boundSide {
		if v.Sub == nil {
			return boundSide{sub: -1, expr: query.Bind(v.Expr, gs)}
		}
		return boundSide{sub: slices.Index(subs, v.Sub), scale: v.Scale}
	}
	for _, p := range q.Preds {
		b.sides = append(b.sides, [2]boundSide{side(p.Left), side(p.Right)})
	}
	return b
}

// GeneralExec is the general incrementalization algorithm: O(log n) per
// event to maintain the maps, O(groups * log n) to recompute the result.
type GeneralExec struct {
	b      *genBinding
	subs   []*subState // parallel to b.subs
	groups map[string]*group
	// keyBuf holds the result-map key of the group ApplyRows last looked up.
	keyBuf []byte
	edge   *Rows
}

// NewGeneral returns the general-algorithm executor, or an error if the
// query contains non-streamable nested aggregates.
func NewGeneral(q *query.Query) (*GeneralExec, error) {
	p, err := prepareOwn(q)
	if err != nil {
		return nil, err
	}
	return newGeneralExec(p.gen), nil
}

func newGeneralExec(b *genBinding) *GeneralExec {
	g := &GeneralExec{b: b, subs: make([]*subState, len(b.subs)), groups: make(map[string]*group)}
	for i, sb := range b.subs {
		g.subs[i] = newSubState(sb)
	}
	return g
}

// Strategy implements Executor.
func (g *GeneralExec) Strategy() string { return "general" }

// Apply implements Executor.
func (g *GeneralExec) Apply(e Event) { g.ApplyBatch([]Event{e}) }

// unionCols returns the columns of a and b, sorted, each once.
func unionCols(a, b []string) []string {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

// Result implements Executor.
func (g *GeneralExec) Result() float64 {
	cnt, sum := g.totals()
	return finishAgg(g.b.q.Outer, sum, cnt)
}

// totals returns the qualifying groups' summed count and aggregate.
func (g *GeneralExec) totals() (cnt, sum float64) {
	for _, gr := range g.groups {
		if g.qualifies(gr.vals) {
			sum += gr.agg
			cnt += gr.cnt
		}
	}
	return cnt, sum
}

// qualifies reports whether the group whose projection is vals passes every
// predicate.
func (g *GeneralExec) qualifies(vals []float64) bool {
	for i := range g.b.sides {
		sd := &g.b.sides[i]
		if !g.b.q.Preds[i].Op.Compare(g.side(&sd[0], vals), g.side(&sd[1], vals)) {
			return false
		}
	}
	return true
}

func (g *GeneralExec) side(s *boundSide, vals []float64) float64 {
	if s.sub < 0 {
		return s.expr(vals)
	}
	return s.scale * g.subs[s.sub].eval(vals)
}

// --- Aggregate-index optimization (section 4.3), equality correlations ---

// aggBinding is the PAI equality plan bound to a schema.
type aggBinding struct {
	q      *query.Query
	schema *query.Schema
	plan   query.AggIndexPlan
	// thr binds the uncorrelated threshold subquery; thrConst is the literal
	// threshold when there is none.
	thr      *subBinding
	thrConst float64
	// contrib is the level's inner weight (nil: counted, weight 1); key the
	// correlation column's slot; agg the outer aggregate term.
	contrib query.Bound
	key     int
	agg     query.Bound
}

func bindAggIndex(q *query.Query, plan query.AggIndexPlan, s *query.Schema) *aggBinding {
	b := &aggBinding{q: q, schema: s, plan: plan, agg: query.Bind(q.Agg, s)}
	b.key, _ = s.Slot(plan.KeyCol)
	if plan.Threshold.Sub != nil {
		b.thr = bindSub(plan.Threshold.Sub, s)
	} else {
		b.thrConst = plan.Threshold.Expr.Eval(nil)
	}
	if plan.Corr.Kind != query.Count {
		b.contrib = query.Bind(plan.Corr.Of, s)
	}
	return b
}

// AggIndexExec executes an equality-correlated query (paper Example 2.1) with
// a PAI map keyed by the correlated subquery's value: each event is an O(1)
// point move of its level's portion between two keys. Its per-level state is
// one hash map: a level is found by its exact column value and never read in
// order. Inequality correlations run on relStateExec.
type AggIndexExec struct {
	b *aggBinding
	// threshold side (uncorrelated): scalar subquery state, nil for a
	// constant.
	thr *subState
	// levels maps the correlation column to its level's state.
	levels map[float64]aggLevel
	// agg is the aggregate index: correlated-aggregate value -> sum(Agg).
	agg *paimap.Map
	// moveBuf backs the deferred point moves of ApplyRows so steady-state
	// batches allocate nothing.
	moveBuf []paimap.MoveOp
	edge    *Rows
}

// aggLevel is one level of AggIndexExec: its summed inner weight (its key in
// the aggregate index), its live-row count (the level exists while it is
// non-zero) and its summed outer aggregate (the portion a move carries).
type aggLevel struct {
	w, cnt, grp float64
}

func newAggIndexExec(b *aggBinding) *AggIndexExec {
	ex := &AggIndexExec{b: b, levels: make(map[float64]aggLevel), agg: paimap.New()}
	if b.thr != nil {
		ex.thr = newSubState(b.thr)
	}
	return ex
}

// Strategy implements Executor.
func (ex *AggIndexExec) Strategy() string { return "aggindex" }

// Apply implements Executor: a batch of one (see ApplyRows).
func (ex *AggIndexExec) Apply(e Event) { ex.ApplyBatch([]Event{e}) }

// Result implements Executor.
func (ex *AggIndexExec) Result() float64 {
	thr := ex.b.thrConst
	if ex.thr != nil {
		thr = ex.b.plan.Threshold.Scale * ex.thr.eval(nil)
	}
	return ex.read(thr)
}

// read sums the index entries whose key qualifies against thr.
func (ex *AggIndexExec) read(thr float64) float64 {
	switch ex.b.plan.ThetaCorrFirst {
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
	panic("engine: unknown comparison " + ex.b.plan.ThetaCorrFirst.String())
}
