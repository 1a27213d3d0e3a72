package engine

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpai/internal/aggindex"
	"rpai/internal/query"
	"rpai/internal/treemap"
)

// Tests for the fused form of relState: one two-lane aggregate index in
// place of the count and term trees, and one byKey descent per event. The
// reference throughout is what the fused form replaced — the two-index
// relState that NewWithIndexKind still builds for a non-arena kind, and the
// standalone treemap calls the old apply made.

// fractionalEvents is priceVolumeEvents with non-integer columns. Prices are
// multiples of 0.1 — not representable, so the price*volume terms round and
// the order they are summed in shows in the bits. Volumes are multiples of
// 0.25: they become the aggregate index's keys, and the relative-key tree
// needs key arithmetic that is exact.
func fractionalEvents(seed int64, n int, deleteRatio float64) []Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < deleteRatio {
			j := rng.Intn(len(live))
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"price":  0.1 * float64(rng.Intn(60)+1),
			"volume": 0.25 * float64(rng.Intn(30)+1),
		}
		live = append(live, t)
		events = append(events, Insert(t))
	}
	return events
}

// orientedSpec is the VWAP shape with the correlation operator and the outer
// comparison swapped in: SUM(price*volume) WHERE 0.4*SUM(volume) theta
// SUM(volume | price subOp price).
func orientedSpec(subOp, theta query.CmpOp) *query.Query {
	q := vwapSpec()
	q.Preds[0].Left.Scale = 0.4
	q.Preds[0].Op = theta
	q.Preds[0].Right.Sub.Where.Op = subOp
	return q
}

var orientations = []struct {
	name  string
	subOp query.CmpOp
}{
	{"le", query.Le}, {"lt", query.Lt}, {"ge", query.Ge}, {"gt", query.Gt},
}

// TestFusedByKeyUpdate pins AddPrefix/AddSuffix to the calls they replaced,
// per orientation: the pre-update right-hand side (PrefixSum, PrefixSumLess,
// SuffixSum or SuffixSumGreater), the level's weight before the update
// (Get), and the tree afterwards (Add, then Delete once the level is empty).
// Prices and volumes are arbitrary non-integers — byKey holds absolute keys,
// so nothing here needs to be exact and every sum is order-sensitive.
func TestFusedByKeyUpdate(t *testing.T) {
	for _, o := range orientations {
		t.Run(o.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(o.subOp) + 41))
			fused, ref := treemap.New(), treemap.New()
			type row struct{ k, w float64 }
			var live []row
			for step := 0; step < 4000; step++ {
				var k, d float64
				if len(live) > 0 && rng.Float64() < 0.45 {
					j := rng.Intn(len(live))
					k, d = live[j].k, -live[j].w
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					r := row{0.1 * float64(rng.Intn(80)+1), 0.3*float64(rng.Intn(30)+1) + 0.07}
					live = append(live, r)
					k, d = r.k, r.w
				}

				var wantRHS float64
				switch o.subOp {
				case query.Le:
					wantRHS = ref.PrefixSum(k)
				case query.Lt:
					wantRHS = ref.PrefixSumLess(k)
				case query.Ge:
					wantRHS = ref.SuffixSum(k)
				case query.Gt:
					wantRHS = ref.SuffixSumGreater(k)
				}
				wantOld, _ := ref.Get(k)
				ref.Add(k, d)
				wantNew, _ := ref.Get(k)
				if wantNew == 0 {
					ref.Delete(k)
				}

				var rhs, old, now float64
				switch o.subOp {
				case query.Le, query.Lt:
					rhs, old, now = fused.AddPrefix(k, d, o.subOp == query.Lt)
				case query.Ge, query.Gt:
					rhs, old, now = fused.AddSuffix(k, d, o.subOp == query.Gt)
				}
				if math.Float64bits(rhs) != math.Float64bits(wantRHS) ||
					math.Float64bits(old) != math.Float64bits(wantOld) ||
					math.Float64bits(now) != math.Float64bits(wantNew) {
					t.Fatalf("step %d key %v delta %v: fused (rhs %v, old %v, new %v), standalone (%v, %v, %v)",
						step, k, d, rhs, old, now, wantRHS, wantOld, wantNew)
				}
				if err := fused.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if fused.Len() != ref.Len() || math.Float64bits(fused.Total()) != math.Float64bits(ref.Total()) {
					t.Fatalf("step %d: fused tree has %d entries totalling %v, reference %d totalling %v",
						step, fused.Len(), fused.Total(), ref.Len(), ref.Total())
				}
			}
		})
	}
}

// TestFusedRelStateMatchesTwoIndexForm drives, for each orientation and outer
// comparison, the planner's executor (two-lane arena index) and the
// two-index reference on the pointer RPAI tree through the same fractional
// trace, per event and in random batches, and requires bit-equal Result,
// ResultProbe (SUM, COUNT and AVG lanes) and ResultFan throughout, and equal
// snapshot bytes at the end.
func TestFusedRelStateMatchesTwoIndexForm(t *testing.T) {
	for _, o := range orientations {
		for _, theta := range []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge} {
			q := orientedSpec(o.subOp, theta)
			t.Run(o.name+"/"+theta.String(), func(t *testing.T) {
				checkKindsBitIdentical(t, q, fractionalEvents(int64(theta)*7+int64(o.subOp), 700, 0.35), true)
			})
		}
	}
}

// TestFusedRelStateMatchesTwoIndexFormOnCorpus is the same comparison over
// the committed FuzzEngineDifferential corpus: every query shape the fuzzer
// knows, wherever the planner picks the range-shift executor.
func TestFusedRelStateMatchesTwoIndexFormOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEngineDifferential", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzEngineDifferential seed corpus found: %v", err)
	}
	compared := 0
	for _, file := range files {
		data, err := readCorpusFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(data) < 9 {
			continue
		}
		q := fuzzQuery(data[0], data[1:9])
		if q == nil || q.Validate() != nil {
			continue
		}
		if checkKindsBitIdentical(t, q, decodeFuzzTrace(data[9:], 160), false) {
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no corpus entry plans onto the range-shift executor")
	}
}

// checkKindsBitIdentical reports whether q plans onto relStateExec; if so it
// has compared the arena and pointer-tree builds of it over events.
func checkKindsBitIdentical(t *testing.T, q *query.Query, events []Event, mustPlan bool) bool {
	t.Helper()
	a, err := NewWithIndexKind(q, aggindex.KindArena)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewWithIndexKind(q, aggindex.KindRPAI)
	if err != nil {
		t.Fatal(err)
	}
	fused, ok := a.(*relStateExec)
	if !ok {
		if mustPlan {
			t.Fatalf("planner picked %T for %s", a, q)
		}
		return false
	}
	ref := r.(*relStateExec)
	if fused.rs.plan.kind == PredCorrelated && (fused.rs.idx == nil || fused.rs.cnt != nil || ref.rs.idx != nil || ref.rs.cnt == nil) {
		t.Fatal("arena kind must build the two-lane index and only it; other kinds the two-index form")
	}
	specs := []ProbeSpec{
		{Kind: query.Sum, Const: 0.4}, {Kind: query.Count, Const: 0.4}, {Kind: query.Avg, Const: 0.4},
		{Kind: query.Sum, Const: 0.9}, {Kind: query.Avg, Const: 0.05}, {Kind: query.Count, Const: 1.5},
	}
	consts := []float64{0.05, 0.4, 0.9, 1.5}
	same := func(what string, i int, x, y []float64) {
		t.Helper()
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				t.Fatalf("%s: event %d: %s lane %d: arena %v, reference %v", q, i, what, j, x[j], y[j])
			}
		}
	}
	check := func(i int) {
		t.Helper()
		same("Result", i, []float64{fused.Result()}, []float64{ref.Result()})
		va, ca := make([]float64, len(specs)), make([]float64, len(specs))
		vr, cr := make([]float64, len(specs)), make([]float64, len(specs))
		fused.ResultProbe(specs, va, ca)
		ref.ResultProbe(specs, vr, cr)
		same("ResultProbe value", i, va, vr)
		same("ResultProbe count", i, ca, cr)
		fa, fr := make([]float64, len(consts)), make([]float64, len(consts))
		fused.ResultFan(consts, fa)
		ref.ResultFan(consts, fr)
		same("ResultFan", i, fa, fr)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < len(events); {
		n := 1
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(40)
		}
		if i+n > len(events) {
			n = len(events) - i
		}
		fused.ApplyBatch(events[i : i+n])
		for _, e := range events[i : i+n] {
			ref.Apply(e)
		}
		i += n
		check(i)
	}
	if !bytes.Equal(snapshotBytes(t, fused), snapshotBytes(t, ref)) {
		t.Fatalf("%s: the two-lane index and the two trees it replaces snapshot to different bytes", q)
	}
	return true
}

// TestParentSnapshotRestores restores a relStateExec snapshot written before
// the count and term trees were fused (VWAP, fractionalEvents(19, 600, 0.3),
// two idxRPAI streams): the on-disk format did not change, so it must load
// into the two-lane index, answer what its writer answered, re-encode to the
// same bytes, and keep step with an executor that never stopped.
func TestParentSnapshotRestores(t *testing.T) {
	const writerResult = 0x4094d7e666666666 // Result() bits printed by the writing commit
	snap, err := os.ReadFile(filepath.Join("testdata", "snapshots", "relstate_vwap_parent.snap"))
	if err != nil {
		t.Fatal(err)
	}
	q := vwapSpec()
	restored, err := Restore(q, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := restored.(*relStateExec)
	if !ok || rs.rs.idx == nil || rs.rs.cnt != nil {
		t.Fatalf("restored %T; want the range-shift executor on the two-lane index", restored)
	}
	if got := math.Float64bits(restored.Result()); got != writerResult {
		t.Fatalf("restored Result bits %#x, writer had %#x", got, uint64(writerResult))
	}
	if !bytes.Equal(snapshotBytes(t, restored), snap) {
		t.Fatal("restored snapshot does not re-encode to the bytes it was read from")
	}
	live, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	events := fractionalEvents(19, 900, 0.3)
	for _, e := range events[:600] {
		live.Apply(e)
	}
	if !bytes.Equal(snapshotBytes(t, live), snap) {
		t.Fatal("replaying the writer's trace does not reproduce its snapshot")
	}
	for i, e := range events[600:] {
		live.Apply(e)
		restored.Apply(e)
		if math.Float64bits(live.Result()) != math.Float64bits(restored.Result()) {
			t.Fatalf("suffix event %d: restored %v, uninterrupted %v", i, restored.Result(), live.Result())
		}
	}

	// Lane streams that disagree on structure must not zip: swap the term
	// stream for one of another shape by restoring a snapshot whose second
	// index stream was cut from a different prefix of the trace.
	other, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events[:300] {
		other.Apply(e)
	}
	if spliced, ok := spliceTermStream(snap, snapshotBytes(t, other)); !ok {
		t.Fatal("could not locate the index streams to splice")
	} else if _, err := Restore(q, bytes.NewReader(spliced)); err == nil || !strings.Contains(err.Error(), "lane snapshots disagree") {
		t.Fatalf("count and term streams of different shapes: Restore error %v, want a lane disagreement", err)
	}
}

// spliceTermStream returns snapshot a with its last length-prefixed RPAI
// stream (the term lane) replaced by b's. Both are relStateExec snapshots,
// which end with that stream.
func spliceTermStream(a, b []byte) ([]byte, bool) {
	cut := func(s []byte) int { return bytes.LastIndex(s, []byte("RPAI")) - 5 } // tag byte + u32 length
	ia, ib := cut(a), cut(b)
	if ia < 0 || ib < 0 {
		return nil, false
	}
	return append(append([]byte{}, a[:ia]...), b[ib:]...), true
}
