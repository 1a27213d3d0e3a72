package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rpai/internal/checkpoint"
	"rpai/internal/query"
)

// decodeFuzzTrace expands the 3-bytes-per-event encoding shared with
// FuzzEngineDifferential into an event list (inserts plus retractions of
// previously live tuples).
func decodeFuzzTrace(data []byte, maxEvents int) []Event {
	var (
		events []Event
		live   []query.Tuple
	)
	for i := 0; i+2 < len(data) && len(events) < maxEvents; i += 3 {
		op, b1, b2 := data[i], data[i+1], data[i+2]
		if op%4 == 0 && len(live) > 0 {
			j := (int(b1)<<8 | int(b2)) % len(live)
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		tup := query.Tuple{
			"price":  float64(b1%40 + 1),
			"volume": float64(b2%30 + 1),
			"a":      float64(b1%10 + 1),
			"b":      float64(b2%8 + 1),
			"broker": float64((b1^b2)%5 + 1),
		}
		live = append(live, tup)
		events = append(events, Insert(tup))
	}
	return events
}

// allExecutors builds every executor the engine offers for q: the naive
// oracle, the general algorithm, and the planner's pick.
func allExecutors(t testing.TB, q *query.Query) []Executor {
	execs := []Executor{NewNaive(q)}
	g, err := NewGeneral(q)
	if err != nil {
		t.Fatalf("NewGeneral(%s): %v", q, err)
	}
	execs = append(execs, g)
	planned, err := New(q)
	if err != nil {
		t.Fatalf("New(%s): %v", q, err)
	}
	return append(execs, planned)
}

// snapshotBytes snapshots ex, requiring it to implement Snapshotter (every
// executor must; a new strategy without durability is a bug this line
// catches).
func snapshotBytes(t testing.TB, ex interface{}) []byte {
	s, ok := ex.(Snapshotter)
	if !ok {
		t.Fatalf("%T does not implement Snapshotter", ex)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("%T.Snapshot: %v", ex, err)
	}
	return buf.Bytes()
}

// roundTripAtSplit checks the full recovery contract for one executor and
// one crash point: snapshot at the split, restore, byte-identical re-encode,
// then bit-identical differential agreement with the uncrashed twin over the
// suffix. crashFrac in [0,256) scales the injected crash offset into the
// snapshot stream; negative skips the write-crash-injection leg.
func roundTripAtSplit(t testing.TB, q *query.Query, ex Executor, events []Event, split, crashFrac int) {
	twin := ex
	for _, e := range events[:split] {
		twin.Apply(e)
	}
	snap := snapshotBytes(t, twin)

	crashLimit := -1
	if crashFrac >= 0 {
		crashLimit = crashFrac * len(snap) / 256
	}
	if crashLimit >= 0 && crashLimit < len(snap) {
		// A crash while writing the snapshot must leave a prefix that is
		// detected on restore, never silently decoded into wrong state.
		cw := checkpoint.NewCrashWriter(crashLimit)
		if err := twin.(Snapshotter).Snapshot(cw); !errors.Is(err, checkpoint.ErrCrash) {
			t.Fatalf("%s: crash at %d/%d bytes not surfaced: %v", twin.Strategy(), crashLimit, len(snap), err)
		}
		if !bytes.Equal(cw.Bytes(), snap[:crashLimit]) {
			t.Fatalf("%s: snapshot stream is not deterministic under a crash at byte %d", twin.Strategy(), crashLimit)
		}
		if _, err := Restore(q, bytes.NewReader(cw.Bytes())); err == nil {
			t.Fatalf("%s: torn snapshot (%d/%d bytes) restored without error", twin.Strategy(), crashLimit, len(snap))
		}
	}

	restored, err := Restore(q, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("%s: Restore: %v", twin.Strategy(), err)
	}
	if restored.Strategy() != twin.Strategy() {
		t.Fatalf("restored strategy %q, want %q", restored.Strategy(), twin.Strategy())
	}
	if re := snapshotBytes(t, restored); !bytes.Equal(re, snap) {
		t.Fatalf("%s: encode->decode->re-encode is not byte-identical (%d vs %d bytes)", twin.Strategy(), len(re), len(snap))
	}
	grouped := len(q.GroupBy) > 0
	for i, e := range events[split:] {
		twin.Apply(e)
		restored.Apply(e)
		got, want := restored.Result(), twin.Result()
		if got != want {
			t.Fatalf("%s: recovered executor diverged at suffix event %d: %v vs %v", twin.Strategy(), i, got, want)
		}
		if grouped {
			tg, ok1 := twin.(GroupedExecutor)
			rg, ok2 := restored.(GroupedExecutor)
			if ok1 && ok2 && !groupsEqual(rg.ResultGrouped(), tg.ResultGrouped()) {
				t.Fatalf("%s: recovered grouped results diverged at suffix event %d", twin.Strategy(), i)
			}
		}
	}
}

// FuzzSnapshotRoundTrip is the durability fuzzer: the input picks a query
// shape, an event trace, a snapshot point inside the trace, and a crash
// offset inside the snapshot stream. For every executor strategy the engine
// offers, it requires (1) encode -> decode -> re-encode byte-identity,
// (2) detection of the injected torn snapshot, and (3) bit-identical
// agreement between the recovered executor and an uncrashed twin over the
// rest of the trace.
//
// Run with `go test -fuzz FuzzSnapshotRoundTrip ./internal/engine`; the
// committed corpus under testdata/fuzz executes under plain `go test`.
func FuzzSnapshotRoundTrip(f *testing.F) {
	trace := []byte{
		1, 5, 9, 1, 5, 3, 1, 17, 28, 1, 5, 9, 0, 0, 1, 1, 200, 100,
		1, 39, 29, 0, 0, 0, 1, 5, 9, 1, 12, 12, 0, 0, 2, 1, 1, 1,
	}
	for shape := byte(0); shape < 11; shape++ {
		// split byte 101 and crash byte 153 land mid-trace and mid-stream.
		f.Add(append([]byte{shape, 0, 0, 0, 0, 0, 0, 0, 77, 101, 153}, trace...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		q := fuzzQuery(data[0], data[1:9])
		if q == nil || q.Validate() != nil {
			return
		}
		splitByte, crashByte := data[9], data[10]
		// The naive oracle re-scans per Result, so keep traces fuzz-cheap.
		events := decodeFuzzTrace(data[11:], 96)
		split := 0
		if len(events) > 0 {
			split = int(splitByte) % (len(events) + 1)
		}
		for _, ex := range allExecutors(t, q) {
			roundTripAtSplit(t, q, ex, events, split, int(crashByte))
		}
	})
}

// mustFresh rebuilds an executor of the same strategy/type as ex for q, so
// each round trip starts from a clean instance.
func mustFresh(t testing.TB, q *query.Query, ex Executor) Executor {
	switch ex.(type) {
	case *NaiveExec:
		return NewNaive(q)
	case *GeneralExec:
		g, err := NewGeneral(q)
		if err != nil {
			t.Fatal(err)
		}
		return g
	case *AggIndexExec, *relStateExec:
		p, err := New(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Fatalf("unknown executor type %T", ex)
	return nil
}

// TestRecoveryMatrixSeedCorpus is the deterministic recovery matrix the
// issue asks for: every executor strategy x every query shape of the
// committed FuzzEngineDifferential seed corpus, snapshotted at several
// points of each trace (including before any event and before the last
// one), restored, and replayed to bit-identical agreement with the
// uncrashed twin. Crash injection at a mid-stream byte offset rides along
// on every cell.
func TestRecoveryMatrixSeedCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEngineDifferential", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzEngineDifferential seed corpus found: %v", err)
	}
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
		events := decodeFuzzTrace(data[9:], fuzzTraceLen(q))
		splits := []int{0, len(events) / 3, len(events) / 2}
		if len(events) > 0 {
			splits = append(splits, len(events)-1, len(events))
		}
		name := filepath.Base(file)
		for _, ex := range allExecutors(t, q) {
			strategy := fmt.Sprintf("%T", ex)
			for _, split := range splits {
				split := split
				t.Run(fmt.Sprintf("%s/%s/split=%d", name, strings.TrimPrefix(strategy, "*engine."), split), func(t *testing.T) {
					// Crash half-way through the snapshot stream.
					roundTripAtSplit(t, q, mustFresh(t, q, ex), events, split, 128)
				})
			}
		}
	}
}

// readCorpusFile parses the `go test fuzz v1` corpus format into the raw
// input bytes.
func readCorpusFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, fmt.Errorf("not a corpus file")
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "[]byte(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// TestSnapshotRejectsWrongQuery pins the cross-query safety property: a
// snapshot taken under one query must not silently restore under a query
// with a different state shape.
func TestSnapshotRejectsWrongQuery(t *testing.T) {
	vwap := vwapSpec()
	g, err := NewGeneral(vwap)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range priceVolumeEvents(3, 50, 0.2) {
		g.Apply(e)
	}
	snap := snapshotBytes(t, g)
	// nq1 has a different subquery structure; the flags check must fire.
	if _, err := Restore(nq1Spec(), bytes.NewReader(snap)); err == nil {
		t.Fatal("general snapshot restored under a structurally different query")
	}
	// Truncations of a valid snapshot must all be rejected.
	for _, frac := range []int{0, 1, 2, 3} {
		cut := len(snap) * frac / 4
		if cut == len(snap) {
			continue
		}
		if _, err := Restore(vwap, bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncated snapshot (%d/%d bytes) accepted", cut, len(snap))
		}
	}
	// Arbitrary garbage must be rejected, not panic.
	if _, err := Restore(vwap, bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("garbage accepted as a snapshot")
	}
}

// TestMultiRelSnapshotRoundTrip covers the multi-relation executors: MST and
// PSP shapes, snapshot mid-trace, byte-identical re-encode, and bit-identical
// suffix agreement for both the incremental executor and its naive oracle.
func TestMultiRelSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *MultiQuery
	}{
		{"mst", mstSpec()},
		{"psp", pspSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := multiEvents(11, 120, 0.25)
			split := len(events) / 2
			agg, err := NewMultiAggIndex(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NewMultiNaive(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			for _, ex := range []MultiExecutor{agg, naive} {
				for _, e := range events[:split] {
					ex.Apply(e)
				}
				snap := snapshotBytes(t, ex)
				restored, err := RestoreMulti(tc.q, bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("%s: RestoreMulti: %v", ex.Strategy(), err)
				}
				if re := snapshotBytes(t, restored); !bytes.Equal(re, snap) {
					t.Fatalf("%s: multi-relation re-encode is not byte-identical", ex.Strategy())
				}
				for i, e := range events[split:] {
					ex.Apply(e)
					restored.Apply(e)
					if got, want := restored.Result(), ex.Result(); got != want {
						t.Fatalf("%s: recovered executor diverged at suffix event %d: %v vs %v", ex.Strategy(), i, got, want)
					}
				}
				// Torn multi-relation snapshots are rejected too.
				if _, err := RestoreMulti(tc.q, bytes.NewReader(snap[:len(snap)/2])); err == nil {
					t.Fatalf("%s: torn multi-relation snapshot accepted", ex.Strategy())
				}
			}
		})
	}
}

// TestRetiredIndexStreamsRefused restores snapshots the parent of the
// one-index engine wrote with index kinds it no longer builds — relStateExec
// over B-tree, sorted-slice and Fenwick indexes, and AggIndexExec's
// range-shift form over a single-lane RPAI tree, all VWAP after
// priceVolumeEvents(7, 200, 0.25) — and requires each to be refused with an
// error naming the kind.
func TestRetiredIndexStreamsRefused(t *testing.T) {
	for file, kind := range map[string]string{
		"relstate_vwap_btree.snap":   "btree",
		"relstate_vwap_sorted.snap":  "sorted",
		"relstate_vwap_fenwick.snap": "fenwick",
		"aggindex_vwap_rpai.snap":    "rpai",
	} {
		snap, err := os.ReadFile(filepath.Join("testdata", "snapshots", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(vwapSpec(), bytes.NewReader(snap)); err == nil || !strings.Contains(err.Error(), kind+" index stream") {
			t.Fatalf("%s: Restore error %v, want a refusal naming %q", file, err, kind)
		}
	}
}

// TestLevelListsRefused holds the decoders of the general algorithm's and
// the PAI executor's level lists to the states their trees and maps can
// hold: a list pair that disagrees on its keys, a summed-term list under
// COUNT, a zero count and a zero nested weight are refused, not restored
// into state that would re-encode differently. Each case's "ok" twin, the
// same stream with the defect removed, restores.
func TestLevelListsRefused(t *testing.T) {
	type lists struct{ sumKeys, sumVals, cntKeys, cntVals []float64 }
	good := lists{[]float64{1, 2}, []float64{10, 20}, []float64{1, 2}, []float64{1, 2}}
	// general writes a GeneralExec stream for a query whose subqueries are an
	// uncorrelated scalar then one correlated subquery, with no groups; tail
	// appends what follows the correlated subquery's two lists.
	general := func(l lists, tail func(e *checkpoint.Encoder)) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf)
		snapHeader(e, tagGeneral)
		e.U32(2)
		e.U8(0)
		e.F64(0)
		e.F64(0)
		flags := uint8(1)
		if tail != nil {
			flags |= 2
		}
		e.U8(flags)
		e.Entries(l.sumKeys, l.sumVals)
		e.Entries(l.cntKeys, l.cntVals)
		if tail != nil {
			tail(e)
		}
		e.U32(0)
		return buf.Bytes()
	}
	nested := func(wKeys, wVals []float64) func(e *checkpoint.Encoder) {
		return func(e *checkpoint.Encoder) {
			e.Entries(wKeys, wVals)
			e.F64(0)
		}
	}
	// pai writes an AggIndexExec stream for EQ1.
	pai := func(wKeys, cntKeys, cntVals, grpKeys []float64) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf)
		snapHeader(e, tagAggIndex)
		e.U8(1)
		e.U8(0)
		e.F64(0)
		e.F64(0)
		e.Entries(wKeys, make([]float64, len(wKeys)))
		e.Entries(cntKeys, cntVals)
		e.U8(3) // the PAI map's kind tag
		e.Entries(nil, nil)
		e.Entries(grpKeys, make([]float64, len(grpKeys)))
		return buf.Bytes()
	}
	ks := []float64{1, 2}
	cases := []struct {
		name string
		q    *query.Query
		snap []byte
		want string // "" for a stream that must restore
	}{
		{"sum-ok", vwapSpec(), general(good, nil), ""},
		{"sum-keys-disagree", vwapSpec(), general(lists{ks, []float64{10, 20}, []float64{1, 3}, []float64{1, 2}}, nil), "disagree"},
		{"sum-list-short", vwapSpec(), general(lists{ks[:1], []float64{10}, ks, []float64{1, 2}}, nil), "disagree"},
		{"sum-zero-count", vwapSpec(), general(lists{ks, []float64{10, 20}, ks, []float64{1, 0}}, nil), "zero count"},
		{"count-ok", countSpec(), general(lists{nil, nil, ks, []float64{1, 2}}, nil), ""},
		{"count-with-sums", countSpec(), general(lists{ks, []float64{10, 20}, ks, []float64{1, 2}}, nil), "COUNT"},
		{"count-zero-count", countSpec(), general(lists{nil, nil, ks, []float64{0, 2}}, nil), "zero count"},
		{"nested-ok", nq1Spec(), general(good, nested(ks, []float64{3, 4})), ""},
		{"nested-zero-weight", nq1Spec(), general(good, nested(ks, []float64{3, 0})), "zero count"},
		{"pai-ok", eq1Spec(), pai(ks, ks, []float64{1, 1}, ks), ""},
		{"pai-count-keys-disagree", eq1Spec(), pai(ks, []float64{1, 3}, []float64{1, 1}, ks), "disagree"},
		{"pai-aggregate-keys-disagree", eq1Spec(), pai(ks, ks, []float64{1, 1}, ks[1:]), "disagree"},
		{"pai-zero-count", eq1Spec(), pai(ks, ks, []float64{1, 0}, ks), "zero count"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ex, err := Restore(c.q, bytes.NewReader(c.snap))
			if c.want == "" {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if got := snapshotBytes(t, ex); !bytes.Equal(got, c.snap) {
					t.Fatal("restored stream does not re-encode byte for byte")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore error %v, want a refusal mentioning %q", err, c.want)
			}
		})
	}
}
