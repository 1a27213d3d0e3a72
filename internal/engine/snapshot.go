package engine

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rpai/internal/checkpoint"
	"rpai/internal/query"
)

// This file makes every executor durable: Snapshot serializes the executor's
// maintained state (level trees via their structural codec, treemaps and
// maps as canonical sorted entry lists) and Restore rebuilds an executor that is
// indistinguishable from one that never stopped. The query itself is not
// serialized — it is the caller's configuration, passed again to Restore —
// so a snapshot is state only, and Restore cross-checks the decoded
// structure against what the query implies (a snapshot from a different
// query fails instead of silently misbehaving).
//
// Encodings are canonical: map-shaped state is written in sorted key order
// and tree-shaped state either as sorted entries or through the exact
// structural codec, so encode -> decode -> encode is byte-identical (the
// property FuzzSnapshotRoundTrip enforces).

// Snapshotter is implemented by every executor in this package; serve's
// checkpointing uses it to persist per-partition state.
type Snapshotter interface {
	// Snapshot writes the executor's full state to w.
	Snapshot(w io.Writer) error
}

// Executor snapshot stream tags. Stable on-disk values: never renumber.
const (
	snapVersion = 1

	tagNaive      = 1
	tagGeneral    = 2
	tagAggIndex   = 3
	tagRelState   = 4
	tagMultiAgg   = 5
	tagMultiNaive = 6
)

func snapHeader(e *checkpoint.Encoder, tag uint8) {
	e.U8(tag)
	e.U8(snapVersion)
}

func readSnapHeader(d *checkpoint.Decoder) uint8 {
	tag := d.U8()
	if v := d.U8(); d.Err() == nil && v != snapVersion {
		d.Fail(fmt.Errorf("engine: unsupported executor snapshot version %d", v))
	}
	return tag
}

// Restore rebuilds an executor of q from a stream written by Snapshot. The
// executor type is dispatched from the stream's tag, so the restored
// strategy always matches the snapshotted one regardless of what New would
// pick today.
func Restore(q *query.Query, r io.Reader) (Executor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	d := checkpoint.NewDecoder(r)
	var ex Executor
	switch tag := readSnapHeader(d); {
	case d.Err() != nil:
	case tag == tagNaive:
		ex = restoreNaive(d, q)
	case tag == tagGeneral:
		ex = restoreGeneral(d, q)
	case tag == tagAggIndex:
		ex = restoreAggIndex(d, q)
	case tag == tagRelState:
		ex = restoreRelStateExec(d, q)
	default:
		d.Fail(fmt.Errorf("engine: unknown executor snapshot tag %d", tag))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ex, nil
}

// RestoreMulti rebuilds a multi-relation executor of q from a stream written
// by its Snapshot.
func RestoreMulti(q *MultiQuery, r io.Reader) (MultiExecutor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	d := checkpoint.NewDecoder(r)
	var ex MultiExecutor
	switch tag := readSnapHeader(d); {
	case d.Err() != nil:
	case tag == tagMultiAgg:
		ex = restoreMultiAgg(d, q)
	case tag == tagMultiNaive:
		ex = restoreMultiNaive(d, q)
	default:
		d.Fail(fmt.Errorf("engine: unknown multi-relation snapshot tag %d", tag))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ex, nil
}

// --- tuples ---

func snapTuple(e *checkpoint.Encoder, t query.Tuple) {
	cols := make([]string, 0, len(t))
	for c := range t {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	e.U32(uint32(len(cols)))
	for _, c := range cols {
		e.Str(c)
		e.F64(t[c])
	}
}

func restoreTuple(d *checkpoint.Decoder) query.Tuple {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	if n > 1024 {
		d.Fail(fmt.Errorf("engine: tuple width %d in snapshot", n))
		return nil
	}
	t := make(query.Tuple, n)
	prev := ""
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		c := d.Str()
		v := d.F64()
		if d.Err() != nil {
			break
		}
		if i > 0 && c <= prev {
			d.Fail(errors.New("engine: tuple columns not strictly ascending in snapshot"))
			break
		}
		prev = c
		t[c] = v
	}
	return t
}

// --- naive ---

// Snapshot implements Snapshotter: the live multiset in insertion order.
func (n *NaiveExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagNaive)
	e.U32(uint32(len(n.live)))
	for _, t := range n.live {
		snapTuple(e, t)
	}
	return e.Err()
}

func restoreNaive(d *checkpoint.Decoder, q *query.Query) *NaiveExec {
	n := NewNaive(q)
	cnt := d.U32()
	for i := uint32(0); i < cnt && d.Err() == nil; i++ {
		t := restoreTuple(d)
		if d.Err() == nil {
			n.live = append(n.live, t)
		}
	}
	return n
}

// --- subquery state ---

func subStateFlags(st *subState) uint8 {
	var flags uint8
	if st.sumTree != nil {
		flags |= 1
	}
	if st.wTree != nil {
		flags |= 2
	}
	if st.thrTree != nil {
		flags |= 4
	}
	return flags
}

func snapSubState(e *checkpoint.Encoder, st *subState) {
	flags := subStateFlags(st)
	e.U8(flags)
	if flags&1 != 0 {
		e.TreeMap(st.sumTree)
		e.TreeMap(st.cntTree)
	} else {
		e.F64(st.sum)
		e.F64(st.cnt)
	}
	if flags&2 != 0 {
		e.TreeMap(st.wTree)
		if flags&4 != 0 {
			e.TreeMap(st.thrTree)
		} else {
			e.F64(st.thrSum)
		}
	}
}

// restoreSubState decodes one subquery's state. The structure flags must
// match what the query implies for s — newSubState derives the tree set
// from the subquery shape, so a mismatch means the snapshot belongs to a
// different query.
func restoreSubState(d *checkpoint.Decoder, s *query.Subquery) *subState {
	st := newSubState(s)
	flags := d.U8()
	if d.Err() != nil {
		return st
	}
	if flags != subStateFlags(st) {
		d.Fail(fmt.Errorf("engine: snapshot subquery structure %#x does not match query structure %#x", flags, subStateFlags(st)))
		return st
	}
	if flags&1 != 0 {
		st.sumTree = d.TreeMap()
		st.cntTree = d.TreeMap()
	} else {
		st.sum = d.F64()
		st.cnt = d.F64()
	}
	if flags&2 != 0 {
		st.wTree = d.TreeMap()
		if flags&4 != 0 {
			st.thrTree = d.TreeMap()
		} else {
			st.thrSum = d.F64()
		}
	}
	return st
}

// --- general ---

// groupKeyFromVals rebuilds the result-map key from the stored projection
// values; it must stay in lockstep with groupProjection.
func groupKeyFromVals(vals []float64) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('|')
	}
	return b.String()
}

// Snapshot implements Snapshotter: per-subquery bound maps in the query's
// deterministic subquery order, then the result map sorted by group key.
func (g *GeneralExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagGeneral)
	subs := g.q.Subqueries()
	e.U32(uint32(len(subs)))
	for _, s := range subs {
		snapSubState(e, g.subs[s])
	}
	keys := make([]string, 0, len(g.groups))
	for k := range g.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(g.groups)))
	for _, k := range keys {
		gr := g.groups[k]
		e.U32(uint32(len(gr.vals)))
		for _, v := range gr.vals {
			e.F64(v)
		}
		e.F64(gr.agg)
		e.F64(gr.cnt)
	}
	return e.Err()
}

func restoreGeneral(d *checkpoint.Decoder, q *query.Query) *GeneralExec {
	g, err := NewGeneral(q)
	if err != nil {
		d.Fail(err)
		return nil
	}
	subs := q.Subqueries()
	if n := d.U32(); d.Err() == nil && int(n) != len(subs) {
		d.Fail(fmt.Errorf("engine: snapshot has %d subqueries, query has %d", n, len(subs)))
		return g
	}
	for _, s := range subs {
		if d.Err() != nil {
			break
		}
		g.subs[s] = restoreSubState(d, s)
	}
	ngroups := d.U32()
	for i := uint32(0); i < ngroups && d.Err() == nil; i++ {
		nv := d.U32()
		if d.Err() != nil {
			break
		}
		if int(nv) != len(g.groupCols) {
			d.Fail(fmt.Errorf("engine: snapshot group width %d, query projects %d columns", nv, len(g.groupCols)))
			break
		}
		vals := make([]float64, nv)
		for j := range vals {
			vals[j] = d.F64()
		}
		gr := &group{vals: vals, agg: d.F64(), cnt: d.F64()}
		if d.Err() == nil {
			g.groups[groupKeyFromVals(vals)] = gr
		}
	}
	return g
}

// --- aggregate index ---

// Snapshot implements Snapshotter: the threshold subquery state, the
// per-level weight map, the per-level live counts, the PAI map, and the
// per-level group map.
func (ex *AggIndexExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagAggIndex)
	if ex.thr != nil {
		e.U8(1)
		snapSubState(e, ex.thr)
	} else {
		e.U8(0)
	}
	e.TreeMap(ex.byKey)
	e.F64Map(ex.cntAt)
	e.Index(ex.agg)
	e.F64Map(ex.groups)
	return e.Err()
}

// restoreAggIndex rebuilds the equality executor. Snapshots of the retired
// range-shift form of AggIndexExec carry a single-lane RPAI stream where the
// PAI map belongs; Decoder.Index refuses it by name.
func restoreAggIndex(d *checkpoint.Decoder, q *query.Query) *AggIndexExec {
	plan, ok := q.PlanAggIndex()
	if !ok {
		d.Fail(fmt.Errorf("engine: query not eligible for an aggregate-index snapshot: %s", q))
		return nil
	}
	ex := newAggIndexExec(q, plan)
	hasThr := d.U8()
	if d.Err() != nil {
		return ex
	}
	if (hasThr == 1) != (plan.Threshold.Sub != nil) {
		d.Fail(errors.New("engine: snapshot threshold structure does not match query plan"))
		return ex
	}
	if hasThr == 1 {
		ex.thr = restoreSubState(d, plan.Threshold.Sub)
	}
	ex.byKey = d.TreeMap()
	d.F64Map(ex.cntAt)
	ex.agg = d.Index()
	d.F64Map(ex.groups)
	if d.Err() == nil && plan.SubOp != query.Eq {
		d.Fail(fmt.Errorf("engine: aggregate-index snapshot under a %s correlation; only equality plans run on the PAI executor", plan.SubOp))
	}
	return ex
}

// --- single-relation planned executor (relState) ---

// Snapshot implements Snapshotter for the planner's single-relation
// aggregate-index executor.
func (ex *relStateExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagRelState)
	snapRelState(e, ex.rs)
	return e.Err()
}

func restoreRelStateExec(d *checkpoint.Decoder, q *query.Query) *relStateExec {
	if len(q.GroupBy) != 0 || len(q.Preds) != 1 || !noNested(q) {
		d.Fail(fmt.Errorf("engine: query shape does not match a single-relation snapshot: %s", q))
		return nil
	}
	spec := RelSpec{Name: "R", Term: q.Agg, Pred: q.Preds[0]}
	rs := restoreRelState(d, spec)
	if d.Err() != nil {
		return nil
	}
	return &relStateExec{rs: rs, outer: q.Outer}
}

// relLevels tags the relation-state layout that holds the level tree. It
// leads the layout, where the layout before it began with its threshold flag
// (0 or 1), so restoreRelState tells the two apart by the first byte.
const relLevels = 2

func snapRelState(e *checkpoint.Encoder, rs *relState) {
	e.U8(relLevels)
	if rs.thr != nil {
		e.U8(1)
		snapSubState(e, rs.thr)
	} else {
		e.U8(0)
	}
	e.U8(uint8(rs.plan.kind))
	e.Levels(rs.levels)
}

func restoreRelState(d *checkpoint.Decoder, spec RelSpec) *relState {
	rs, err := newRelState(spec)
	if err != nil {
		d.Fail(err)
		return nil
	}
	layout := d.U8()
	hasThr := layout
	if layout == relLevels {
		hasThr = d.U8()
	}
	if d.Err() != nil {
		return rs
	}
	if hasThr > 1 {
		d.Fail(fmt.Errorf("engine: relation-state threshold flag %d (layout %d) is neither 0 nor 1", hasThr, layout))
		return rs
	}
	if (hasThr == 1) != (rs.plan.threshold.Sub != nil) {
		d.Fail(errors.New("engine: snapshot threshold structure does not match relation plan"))
		return rs
	}
	if hasThr == 1 {
		rs.thr = restoreSubState(d, rs.plan.threshold.Sub)
	}
	if k := d.U8(); d.Err() == nil && RelPredKind(k) != rs.plan.kind {
		d.Fail(fmt.Errorf("engine: snapshot predicate kind %d does not match plan kind %d", k, rs.plan.kind))
		return rs
	}
	if layout == relLevels {
		rs.levels = d.Levels()
	} else {
		restoreParentLevels(d, rs)
	}
	return rs
}

// restoreParentLevels converts the index half of the relation-state layout
// that preceded the level tree, so a data dir written before it still
// recovers (and its next snapshot is written in the new layout):
//
//   - PredCorrelated: a column-keyed treemap of level weights, then the count
//     and term lanes of an RPAI keyed by running weight sums. The RPAI's key
//     order is the level tree's (ascending column, or descending under >=/>),
//     so the map's entries zip onto the RPAI's shape in that order
//     (checkpoint.Decoder.ParentLevels): the converted tree caches the sums
//     the RPAI did, and reads what it read.
//   - PredColumn: column-keyed count and term treemaps over one key set.
func restoreParentLevels(d *checkpoint.Decoder, rs *relState) {
	var keys, vals []float64
	d.TreeMap().Ascend(func(k, v float64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	if d.Err() != nil {
		return
	}
	if rs.plan.kind == PredCorrelated {
		if rs.neg {
			slices.Reverse(keys)
			slices.Reverse(vals)
			for i := range keys {
				keys[i] = -keys[i]
			}
		}
		rs.levels = d.ParentLevels(keys, vals)
		return
	}
	terms := d.TreeMap()
	if d.Err() != nil {
		return
	}
	i := 0
	terms.Ascend(func(k, t float64) bool {
		if i == len(keys) || k != keys[i] || vals[i] == 0 {
			return false
		}
		rs.levels.Add(k, 0, vals[i], t)
		i++
		return true
	})
	if i != len(keys) || terms.Len() != len(keys) {
		d.Fail(errors.New("engine: snapshot count and term maps disagree on their levels"))
	}
}

// --- multi-relation ---

// Snapshot implements Snapshotter: per-relation state in MultiQuery.Rels
// order, each labeled with its relation name.
func (ex *MultiAggIndexExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagMultiAgg)
	e.U32(uint32(len(ex.q.Rels)))
	for _, spec := range ex.q.Rels {
		e.Str(spec.Name)
		snapRelState(e, ex.rels[spec.Name])
	}
	return e.Err()
}

func restoreMultiAgg(d *checkpoint.Decoder, q *MultiQuery) *MultiAggIndexExec {
	if n := d.U32(); d.Err() == nil && int(n) != len(q.Rels) {
		d.Fail(fmt.Errorf("engine: snapshot has %d relations, query has %d", n, len(q.Rels)))
		return nil
	}
	ex := &MultiAggIndexExec{q: q, rels: make(map[string]*relState, len(q.Rels))}
	for _, spec := range q.Rels {
		if d.Err() != nil {
			break
		}
		if name := d.Str(); d.Err() == nil && name != spec.Name {
			d.Fail(fmt.Errorf("engine: snapshot relation %q, query expects %q", name, spec.Name))
			break
		}
		ex.rels[spec.Name] = restoreRelState(d, spec)
	}
	return ex
}

// Snapshot implements Snapshotter: per-relation live multisets in
// MultiQuery.Rels order.
func (ex *MultiNaiveExec) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagMultiNaive)
	e.U32(uint32(len(ex.q.Rels)))
	for _, spec := range ex.q.Rels {
		e.Str(spec.Name)
		live := ex.live[spec.Name]
		e.U32(uint32(len(live)))
		for _, t := range live {
			snapTuple(e, t)
		}
	}
	return e.Err()
}

func restoreMultiNaive(d *checkpoint.Decoder, q *MultiQuery) *MultiNaiveExec {
	if n := d.U32(); d.Err() == nil && int(n) != len(q.Rels) {
		d.Fail(fmt.Errorf("engine: snapshot has %d relations, query has %d", n, len(q.Rels)))
		return nil
	}
	ex := &MultiNaiveExec{q: q, live: map[string][]query.Tuple{}}
	for _, spec := range q.Rels {
		if d.Err() != nil {
			break
		}
		if name := d.Str(); d.Err() == nil && name != spec.Name {
			d.Fail(fmt.Errorf("engine: snapshot relation %q, query expects %q", name, spec.Name))
			break
		}
		cnt := d.U32()
		for i := uint32(0); i < cnt && d.Err() == nil; i++ {
			t := restoreTuple(d)
			if d.Err() == nil {
				ex.live[spec.Name] = append(ex.live[spec.Name], t)
			}
		}
	}
	return ex
}
