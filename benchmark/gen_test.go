package main

import (
	"bytes"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// encodedTrace renders a workload's first n steady-state events (after its
// preload) in the engine's canonical event encoding.
func encodedTrace(w Workload, seed uint64, n int) []byte {
	g := NewGen(w, seed)
	t := make(query.Tuple, 3)
	var buf []byte
	for i := 0; i < w.Preload; i++ {
		buf = engine.EncodeEvent(buf, g.Insert().fill(t))
	}
	for i := 0; i < n; i++ {
		buf = engine.EncodeEvent(buf, g.Next().fill(t))
	}
	return buf
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		w = w.scaled(100)
		a, b := encodedTrace(w, 1, 5000), encodedTrace(w, 1, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different traces", w.Name)
		}
		if c := encodedTrace(w, 2, 5000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 produced the same trace", w.Name)
		}
	}
}

// TestDeletesRetractLiveRows replays a stream against a plain multiset: every
// delete must name a row that is live at that point, and the generator's
// dense state must equal the multiset's at the end.
func TestDeletesRetractLiveRows(t *testing.T) {
	w, _ := workloadByName("multi-distinct")
	w = w.scaled(50)
	g := NewGen(w, 3)
	live := map[Event]int{}
	apply := func(e Event) {
		row := e
		row.X = 1
		if e.X > 0 {
			live[row]++
			return
		}
		if live[row] == 0 {
			t.Fatalf("delete of a row that is not live: %+v", e)
		}
		live[row]--
	}
	for i := 0; i < w.Preload; i++ {
		apply(g.Insert())
	}
	deletes := 0
	for i := 0; i < 20*w.Preload; i++ {
		e := g.Next()
		if e.X < 0 {
			deletes++
		}
		apply(e)
	}
	if deletes < 9*w.Preload || deletes > 11*w.Preload {
		t.Errorf("%d deletes in %d steady-state events, want about half", deletes, 20*w.Preload)
	}
	n := 0
	for row, c := range live {
		n += c
		cell := int(row.Sym)*w.Levels + int(row.Price) - 1
		if c > 0 && g.cnt[cell] == 0 {
			t.Fatalf("row %+v is live but its cell is empty", row)
		}
	}
	if n != g.Live() {
		t.Errorf("generator tracks %d live rows, the multiset holds %d", g.Live(), n)
	}
	var cells int64
	for _, c := range g.cnt {
		cells += c
	}
	if cells != int64(n) {
		t.Errorf("dense state holds %d rows, the multiset %d", cells, n)
	}
}
