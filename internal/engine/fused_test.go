package engine

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpai/internal/checkpoint"
	"rpai/internal/query"
	"rpai/internal/rpai"
	"rpai/internal/treemap"
)

// Tests for relState's level tree against the structures it replaced. The
// reference throughout is twoTreeRef below: the same plan on a column-keyed
// treemap of weights beside two single-lane RPAI trees keyed by running
// weight sums, with the range shift of the paper's Algorithm 4 per event.
// Where every sum is exact (integer or dyadic columns) the level tree must
// read what it reads bit for bit; with rounding terms it adds them in
// another order and must stay within almostEqual. Its snapshot is the
// relation-state layout that preceded the level tree, which Restore still
// converts — bit-exactly, since the converted tree takes over the RPAI's
// shape and sums.

// twoTreeRef is the range-shift executor as it stood before the level tree,
// kept here as a test-only reference for single-relation queries with a
// correlated predicate. Its snapshot is the parent relation-state layout: a
// weight treemap and two idxRPAI streams.
type twoTreeRef struct {
	q         *query.Query
	plan      relPlan
	schema    *query.Schema
	thr       *subState
	byKey     *treemap.Tree
	cnt, term *rpai.Tree
}

func newTwoTreeRef(t testing.TB, q *query.Query) *twoTreeRef {
	t.Helper()
	plan, err := classifyRelPred(q.Preds[0])
	if err != nil || plan.kind != predCorrelated {
		t.Fatalf("%s: no correlated range-shift plan (%v)", q, err)
	}
	r := &twoTreeRef{q: q, plan: plan, schema: query.NewSchema(q.Columns()...),
		byKey: treemap.New(), cnt: rpai.New(), term: rpai.New()}
	if plan.threshold.Sub != nil {
		r.thr = newSubState(bindSub(plan.threshold.Sub, r.schema))
	}
	return r
}

func (r *twoTreeRef) Strategy() string { return "two-tree reference" }

func (r *twoTreeRef) Apply(e Event) {
	t, x := e.Tuple, e.X
	if r.thr != nil {
		var scratch *Rows
		_, row := edgeRows(r.schema, &scratch, []Event{e}).At(0)
		r.thr.apply(row, x)
	}
	w := 1.0
	if r.plan.corr.Kind == query.Sum {
		w = r.plan.corr.Of.Eval(t)
	}
	k := t[r.plan.keyCol]
	var rhs float64
	switch r.plan.subOp {
	case query.Le:
		rhs = r.byKey.PrefixSum(k)
	case query.Lt:
		rhs = r.byKey.PrefixSumLess(k)
	case query.Ge:
		rhs = r.byKey.SuffixSum(k)
	case query.Gt:
		rhs = r.byKey.SuffixSumGreater(k)
	}
	volAt, _ := r.byKey.Get(k)
	r.byKey.Add(k, x*w)
	if v, _ := r.byKey.Get(k); v == 0 {
		r.byKey.Delete(k)
	}
	at, inclusive, key := rhs-volAt, false, rhs+x*w
	if r.plan.subOp == query.Lt || r.plan.subOp == query.Gt {
		at, inclusive, key = rhs, !(volAt > 0), rhs
	}
	for _, tr := range []*rpai.Tree{r.cnt, r.term} {
		if inclusive {
			tr.ShiftKeysInclusive(at, x*w)
		} else {
			tr.ShiftKeys(at, x*w)
		}
	}
	r.cnt.Add(key, x)
	r.term.Add(key, x*r.q.Agg.Eval(t))
	if v, ok := r.cnt.Get(key); ok && v == 0 {
		r.cnt.Delete(key)
		r.term.Delete(key)
	}
}

// sums reads (count, term sum) at threshold thr, one single-probe call per
// tree.
func (r *twoTreeRef) sums(thr float64) (cnt, sum float64) {
	switch r.plan.thetaCorrFirst {
	case query.Lt:
		return r.cnt.GetSumLess(thr), r.term.GetSumLess(thr)
	case query.Le:
		return r.cnt.GetSum(thr), r.term.GetSum(thr)
	case query.Gt:
		return r.cnt.SuffixSumGreater(thr), r.term.SuffixSumGreater(thr)
	}
	return r.cnt.SuffixSum(thr), r.term.SuffixSum(thr)
}

func (r *twoTreeRef) Result() float64 {
	var at float64
	if r.thr != nil {
		at = r.plan.threshold.Scale * r.thr.eval(nil)
	} else {
		at = r.plan.threshold.Expr.Eval(nil)
	}
	cnt, sum := r.sums(at)
	return finishAgg(r.q.Outer, sum, cnt)
}

// ResultProbe answers every lane with its own single probes.
func (r *twoTreeRef) ResultProbe(specs []ProbeSpec, vals, cnts []float64) {
	for i, s := range specs {
		at := s.Const
		if r.thr != nil {
			at = s.Const * r.thr.eval(nil)
		}
		cnt, sum := r.sums(at)
		switch s.Kind {
		case query.Sum:
			vals[i] = sum
		case query.Count:
			vals[i] = cnt
		case query.Avg:
			vals[i], cnts[i] = sum, cnt
		}
	}
}

// Snapshot writes the parent relStateExec layout, each tree as one idxRPAI
// stream.
func (r *twoTreeRef) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	snapHeader(e, tagRelState)
	if r.thr != nil {
		e.U8(1)
		snapSubState(e, r.thr)
	} else {
		e.U8(0)
	}
	e.U8(uint8(predCorrelated))
	var keys, vals []float64
	r.byKey.Ascend(func(k, v float64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	e.Entries(keys, vals)
	for _, tr := range []*rpai.Tree{r.cnt, r.term} {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return err
		}
		e.U8(1) // the idxRPAI kind tag
		e.Bytes(buf.Bytes())
	}
	return e.Err()
}

// fractionalEvents is priceVolumeEvents with non-integer columns. Prices are
// multiples of 0.1 — not representable, so the price*volume terms round and
// the order they are summed in shows in the bits. Volumes are multiples of
// 0.25: they become the reference RPAI's keys, and its relative-key tree
// needs key arithmetic that is exact.
func fractionalEvents(seed int64, n int, deleteRatio float64) []Event {
	return priceStepEvents(seed, n, deleteRatio, 0.1)
}

// priceStepEvents is fractionalEvents with prices that are multiples of step.
// With a dyadic step every sum is exact, whatever order it is taken in.
func priceStepEvents(seed int64, n int, deleteRatio, step float64) []Event {
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
			"price":  step * float64(rng.Intn(60)+1),
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

// TestFusedRelStateMatchesTwoIndexForm drives, for each orientation and outer
// comparison, the planner's executor (the level tree) and the two-tree
// reference through the same traces, per event and in random batches: on a
// dyadic-price trace, where every sum is exact, Result and ResultProbe (SUM,
// COUNT and AVG lanes, several thresholds) must be bit-equal throughout; on a
// fractional-price trace, whose terms round, within 1e-9 of the summed
// magnitudes. At the end
// the reference's snapshot (the parent layout) must restore into a level tree
// that reads what the reference reads, bit for bit, on either trace.
func TestFusedRelStateMatchesTwoIndexForm(t *testing.T) {
	for _, o := range orientations {
		for _, theta := range []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge} {
			q := orientedSpec(o.subOp, theta)
			t.Run(o.name+"/"+theta.String(), func(t *testing.T) {
				seed := int64(theta)*7 + int64(o.subOp)
				checkFusedMatchesReference(t, q, priceStepEvents(seed, 700, 0.35, 0.125), true, true)
				checkFusedMatchesReference(t, q, fractionalEvents(seed, 700, 0.35), true, false)
			})
		}
	}
}

// TestFusedRelStateMatchesTwoIndexFormOnCorpus is the same comparison over
// the committed FuzzEngineDifferential corpus: every query shape the fuzzer
// knows, wherever the planner picks the range-shift executor on a correlated
// predicate. The corpus traces are integer-valued, so the reads are exact and
// must be bit-equal.
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
		if checkFusedMatchesReference(t, q, decodeFuzzTrace(data[9:], 160), false, true) {
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no corpus entry plans onto the range-shift executor")
	}
}

// checkFusedMatchesReference reports whether q plans onto relStateExec with a
// correlated predicate; if so it has compared that executor with twoTreeRef
// over events — bit for bit when exact, else within rounding — and
// restored the reference's final snapshot through the parent-layout
// conversion, which must read what the reference reads, bit for bit.
func checkFusedMatchesReference(t *testing.T, q *query.Query, events []Event, mustPlan, exact bool) bool {
	t.Helper()
	a, err := New(q)
	if err != nil {
		t.Fatal(err)
	}
	fused, ok := a.(*relStateExec)
	if !ok || fused.rs.b.plan.kind != predCorrelated {
		if mustPlan {
			t.Fatalf("planner picked %T for %s", a, q)
		}
		return false
	}
	ref := newTwoTreeRef(t, q)
	specs := []ProbeSpec{
		{Kind: query.Sum, Const: 0.4}, {Kind: query.Count, Const: 0.4}, {Kind: query.Avg, Const: 0.4},
		{Kind: query.Sum, Const: 0.9}, {Kind: query.Avg, Const: 0.05}, {Kind: query.Count, Const: 1.5},
		{Kind: query.Sum, Const: 0.05}, {Kind: query.Sum, Const: 1.5},
	}
	// Rounded sums are compared within 1e-9 of the magnitudes they came
	// from: a suffix read is a total minus a prefix, so its rounding error
	// scales with the total, not with the (possibly cancelled) answer.
	same := func(what string, i int, x, y []float64, bits bool) {
		t.Helper()
		scale := math.Max(math.Abs(ref.term.Total()), ref.cnt.Total())
		for j := range x {
			if bits && math.Float64bits(x[j]) != math.Float64bits(y[j]) ||
				math.Abs(x[j]-y[j]) > 1e-9*math.Max(scale, math.Max(math.Abs(x[j]), math.Abs(y[j]))) {
				t.Fatalf("%s: event %d: %s lane %d: level tree %v, reference %v", q, i, what, j, x[j], y[j])
			}
		}
	}
	check := func(i int, ex relExec, bits bool) {
		t.Helper()
		same("Result", i, []float64{ex.Result()}, []float64{ref.Result()}, bits)
		va, ca := make([]float64, len(specs)), make([]float64, len(specs))
		vr, cr := make([]float64, len(specs)), make([]float64, len(specs))
		ex.ResultProbe(specs, va, ca)
		ref.ResultProbe(specs, vr, cr)
		same("ResultProbe value", i, va, vr, bits)
		same("ResultProbe count", i, ca, cr, bits)
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
		check(i, fused, exact)
	}
	converted, err := Restore(q, bytes.NewReader(snapshotBytes(t, ref)))
	if err != nil {
		t.Fatalf("%s: restoring the parent layout: %v", q, err)
	}
	check(len(events), converted.(*relStateExec), true)
	return true
}

// relExec is what checkFusedMatchesReference reads.
type relExec interface {
	Result() float64
	ResultProbe(specs []ProbeSpec, vals, cnts []float64)
}

// TestParentSnapshotRestores restores a relStateExec snapshot written before
// the level tree (VWAP, fractionalEvents(19, 600, 0.3); a weight treemap and
// two idxRPAI streams). It must convert into a level tree that answers
// exactly what its writer answered, re-encode in the level-tree layout, and
// keep step with the oracle — within almostEqual of naive re-evaluation, and
// bit-equal to a restore of its own re-snapshot.
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
	if !ok || rs.rs.levels == nil {
		t.Fatalf("restored %T; want the range-shift executor on the level tree", restored)
	}
	if got := math.Float64bits(restored.Result()); got != writerResult {
		t.Fatalf("restored Result bits %#x, writer had %#x", got, uint64(writerResult))
	}
	resnap := snapshotBytes(t, restored)
	if len(resnap) < 3 || resnap[0] != tagRelState || resnap[2] != relLevels {
		t.Fatalf("re-snapshot begins % x; want the relation state under the level-tree layout tag %d", resnap[:min(3, len(resnap))], relLevels)
	}
	again, err := Restore(q, bytes.NewReader(resnap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, again), resnap) {
		t.Fatal("the re-snapshot does not round-trip byte-identically")
	}
	events := fractionalEvents(19, 900, 0.3)
	naive := NewNaive(q)
	for _, e := range events[:600] {
		naive.Apply(e)
	}
	for i, e := range events[600:] {
		naive.Apply(e)
		restored.Apply(e)
		again.Apply(e)
		if got := restored.Result(); !almostEqual(got, naive.Result()) ||
			math.Float64bits(got) != math.Float64bits(again.Result()) {
			t.Fatalf("suffix event %d: restored %v, its re-snapshot %v, naive %v", i, got, again.Result(), naive.Result())
		}
	}

	// Lane streams that disagree on structure must not zip: swap the term
	// stream for one of another shape by restoring a snapshot whose second
	// index stream was cut from a different prefix of the trace.
	other := newTwoTreeRef(t, q)
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
// stream (the term lane) replaced by b's. Both are parent-layout relStateExec
// snapshots, which end with that stream.
func spliceTermStream(a, b []byte) ([]byte, bool) {
	cut := func(s []byte) int { return bytes.LastIndex(s, []byte("RPAI")) - 5 } // tag byte + u32 length
	ia, ib := cut(a), cut(b)
	if ia < 0 || ib < 0 {
		return nil, false
	}
	return append(append([]byte{}, a[:ia]...), b[ib:]...), true
}
