package engine

import (
	"strings"
	"testing"

	"rpai/internal/query"
)

// TestAllocGuardApplyBatch pins the batched steady state: once an executor's
// indexes, maps and scratch buffers have seen the working set, replaying a
// balanced insert/delete batch allocates nothing — for both aggregate-index
// shapes the planner emits (the arena-tree range-shift executor and the
// PAI-map point-move executor with its deferred move buffer) and for the
// general algorithm on an SQ-shaped query (correlated <=, GROUP BY sym) and
// on NQ1: their subquery states know at bind time whether they are
// correlated, and a group lookup formats its key into a reused buffer.
func TestAllocGuardApplyBatch(t *testing.T) {
	sqGeneral := vwapSpec()
	sqGeneral.GroupBy = []string{"sym"}
	for _, spec := range []struct {
		name string
		q    *query.Query
	}{
		{"vwap-arena", vwapSpec()},
		{"eq1-pai", eq1Spec()},
		{"sq-general", sqGeneral},
		{"nq1-general", nq1Spec()},
	} {
		ex, err := New(spec.q)
		if err != nil {
			t.Fatal(err)
		}
		bx, ok := ex.(BatchExecutor)
		if !ok {
			t.Fatalf("%s: %T does not implement BatchExecutor", spec.name, ex)
		}
		if _, general := ex.(*GeneralExec); general != strings.HasSuffix(spec.name, "-general") {
			t.Fatalf("%s: planner built %T", spec.name, ex)
		}
		// Warm state: a resident copy of every tuple keeps each key level
		// alive across the measured batch's retractions.
		tuples := make([]query.Tuple, 32)
		for i := range tuples {
			tuples[i] = query.Tuple{
				"price":  float64(i%8 + 1),
				"volume": float64(i%5 + 1),
				"a":      float64(i%6 + 1),
				"b":      float64(i%4 + 1),
				"sym":    float64(i % 3),
			}
			bx.Apply(Insert(tuples[i]))
		}
		batch := make([]Event, 0, 2*len(tuples))
		for _, tu := range tuples {
			batch = append(batch, Insert(tu), Delete(tu))
		}
		bx.ApplyBatch(batch) // warm scratch buffers, slabs and map buckets
		if got := testing.AllocsPerRun(200, func() { bx.ApplyBatch(batch) }); got > 0 {
			t.Errorf("%s: ApplyBatch allocates %.1f per batch, want 0", spec.name, got)
		}
	}
}

// TestAllocGuardEventCodec pins the allocation contracts of the event codec:
// once the destination buffer has grown, EncodeEvent is allocation-free for
// tuples within the inline column bound, and an interning EventDecoder
// allocates only the tuple map per event (each distinct column name is
// allocated once, on first sight).
func TestAllocGuardEventCodec(t *testing.T) {
	ev := Insert(query.Tuple{"price": 101, "volume": 7, "broker": 3})
	var buf []byte
	buf = EncodeEvent(buf[:0], ev) // grow once before measuring

	if got := testing.AllocsPerRun(200, func() {
		buf = EncodeEvent(buf[:0], ev)
	}); got > 0 {
		t.Errorf("EncodeEvent allocates %.1f per op, want 0", got)
	}

	payload := append([]byte(nil), buf...)
	var dec EventDecoder
	if _, err := dec.Decode(payload); err != nil { // intern the column names
		t.Fatal(err)
	}
	// The tuple map (header + bucket) is the only per-event allocation; the
	// interned names and the decoder itself are shared across events.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("EventDecoder.Decode allocates %.1f per op, want <= 2", got)
	}

	// The row decoder builds no map and interns nothing: decoding into a
	// grown Rows is allocation-free, a column the schema lacks included.
	var rd RowDecoder
	rd.SetSchema(query.NewSchema("price", "volume"))
	var rows Rows
	if got := testing.AllocsPerRun(200, func() {
		rows.Reset(2)
		if err := rd.Decode(&rows, payload); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("RowDecoder.Decode allocates %.1f per op, want 0", got)
	}
}
