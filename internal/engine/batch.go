package engine

// Batch-native execution. Every executor accepts a whole slice of events at
// once via ApplyBatch and is free to amortize per-event overhead — group-key
// projection, map lookups, aggregate-index descents — across the batch, under
// one contract: the final state (and therefore every subsequent Result /
// ResultGrouped) is BIT-IDENTICAL to applying the same events one at a time
// in order. Floating-point evaluation order is part of that contract, so the
// batched paths never coalesce same-key deltas into one float addition and
// never reorder operations on the same structure; they only skip redundant
// recomputation (identical group keys, repeated relation lookups) and defer
// writes to structures that are provably not read again within the batch
// (the equality plan's PAI point moves). FuzzBatchEquivalence enforces the
// contract differentially at random batch boundaries.

import (
	"math"
	"strconv"

	"rpai/internal/paimap"
	"rpai/internal/query"
)

// BatchExecutor is an Executor with a native bulk path. ApplyBatch(events)
// leaves exactly the state of `for _, e := range events { Apply(e) }`, bit
// for bit; implementations only amortize work, never change results. All
// engine executors implement it.
type BatchExecutor interface {
	Executor
	// ApplyBatch processes events in order as one batch.
	ApplyBatch(events []Event)
}

// ApplyAll feeds events through the executor's batched path when it has one,
// falling back to an Apply loop otherwise. Results are identical either way.
func ApplyAll(ex Executor, events []Event) {
	if bx, ok := ex.(BatchExecutor); ok {
		bx.ApplyBatch(events)
		return
	}
	for i := range events {
		ex.Apply(events[i])
	}
}

// ApplyBatch implements BatchExecutor: the live slice is grown once for all
// of the batch's insertions instead of reallocating along the append path.
func (n *NaiveExec) ApplyBatch(events []Event) {
	grow := 0
	for i := range events {
		if events[i].X > 0 {
			grow++
		}
	}
	if need := len(n.live) + grow; need > cap(n.live) {
		live := make([]query.Tuple, len(n.live), need)
		copy(live, n.live)
		n.live = live
	}
	for i := range events {
		n.Apply(events[i])
	}
}

// ApplyBatch implements BatchExecutor: the events, laid out as rows of the
// executor's schema, take the row path.
func (g *GeneralExec) ApplyBatch(events []Event) {
	g.ApplyRows(edgeRows(g.b.schema, &g.edge, events))
}

// ApplyRows implements RowExecutor. Event streams are bursty in their group
// key — a partition's drain is often one ticker, one group — so the group
// lookup is cached across consecutive rows that project to the same column
// values. The cache compares raw float bits per column: distinct bit
// patterns (including -0 vs +0, which format differently) always miss and
// look up again, so a hit reuses only a lookup that would have found the
// same key and the same *group. A lookup formats the key into a reused
// buffer and probes the map with it, so only a group's creation allocates.
func (g *GeneralExec) ApplyRows(rows *Rows) {
	var gr *group
	for i, n := 0, rows.Len(); i < n; i++ {
		x, row := rows.At(i)
		for _, st := range g.subs {
			st.apply(row, x)
		}
		if gr == nil || !sameProjection(g.b.groupSlots, row, gr.vals) {
			gr = g.group(row)
		}
		gr.agg += x * g.b.agg(row)
		gr.cnt += x
		if gr.cnt == 0 {
			delete(g.groups, string(g.keyBuf))
			gr = nil
		}
	}
}

// group returns row's result-map entry, creating it if absent, and leaves its
// key in keyBuf. The key text is groupKey's, so snapshots and the
// read side see the keys they always have.
func (g *GeneralExec) group(row []float64) *group {
	buf := g.keyBuf[:0]
	for _, s := range g.b.groupSlots {
		buf = strconv.AppendFloat(buf, row[s], 'g', -1, 64)
		buf = append(buf, '|')
	}
	g.keyBuf = buf
	if gr, ok := g.groups[string(buf)]; ok {
		return gr
	}
	gr := &group{vals: make([]float64, len(g.b.groupSlots))}
	for i, s := range g.b.groupSlots {
		gr.vals[i] = row[s]
	}
	g.groups[string(buf)] = gr
	return gr
}

// sameProjection reports whether projecting slots from row yields exactly
// vals, comparing bit patterns so NaNs compare by payload and signed zeros
// are distinct (the key text formats them differently).
func sameProjection(slots []int, row, vals []float64) bool {
	for i, s := range slots {
		if math.Float64bits(row[s]) != math.Float64bits(vals[i]) {
			return false
		}
	}
	return true
}

// ApplyBatch implements BatchExecutor through the row path.
func (ex *relStateExec) ApplyBatch(events []Event) {
	ex.ApplyRows(edgeRows(ex.rs.b.schema, &ex.edge, events))
}

// ApplyRows implements RowExecutor for the single-relation inequality
// executor: a straight loop over the relation state (the per-event work is
// already O(log n) index maintenance with nothing batch-amortizable that
// would preserve float evaluation order).
func (ex *relStateExec) ApplyRows(rows *Rows) {
	rs := ex.rs
	for i, n := 0, rows.Len(); i < n; i++ {
		x, row := rows.At(i)
		rs.apply(row, x)
	}
}

// ApplyBatch implements BatchExecutor through the row path.
func (ex *AggIndexExec) ApplyBatch(events []Event) {
	ex.ApplyRows(edgeRows(ex.b.schema, &ex.edge, events))
}

// ApplyRows implements RowExecutor, and is the only path into the executor.
// Per event it updates thr and the event's level, but the two aggregate-index
// writes — retracting the level's portion from its old key (paimap.Take,
// which drops the key when it zeroes) and adding it under the new one — are
// buffered as one paimap.MoveOp and flushed in order at the end of the batch.
// That deferral is sound because the per-event bookkeeping never reads the
// aggregate index (only Result does), and bit-identical to event-at-a-time
// moves because MoveMany replays the identical map operations in the
// identical order. An event that empties its level (cnt reaching zero)
// issues only the retraction, in order: the buffer is flushed first, then the
// bare Take.
func (ex *AggIndexExec) ApplyRows(rows *Rows) {
	b := ex.b
	pm := ex.agg
	moves := ex.moveBuf[:0]
	for i, n := 0, rows.Len(); i < n; i++ {
		x, row := rows.At(i)
		if ex.thr != nil {
			ex.thr.apply(row, x)
		}
		w := 1.0
		if b.contrib != nil {
			w = b.contrib(row)
		}
		k := row[b.key]
		// Point move (Figure 1c): the level's key is its own summed weight.
		lv, ok := ex.levels[k]
		oldKey, grpVal := lv.w, lv.grp
		if ok {
			lv.w += x * w
		} else {
			lv.w = x * w // not 0 + x*w, which loses a -0
		}
		lv.cnt += x
		if lv.cnt == 0 {
			delete(ex.levels, k)
			pm.MoveMany(moves)
			moves = moves[:0]
			pm.Take(oldKey, grpVal)
			continue
		}
		lv.grp = grpVal + x*b.agg(row)
		ex.levels[k] = lv
		moves = append(moves, paimap.MoveOp{From: oldKey, Take: grpVal, To: lv.w, Put: lv.grp})
	}
	pm.MoveMany(moves)
	ex.moveBuf = moves[:0]
}
