package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
)

// catState is every registered query's scalar and grouped result, keyed by
// QueryID — the unit the recovery and follower tests compare bit for bit.
type catState map[QueryID]queryState

type queryState struct {
	scalar float64
	groups []engine.GroupResult
}

// stateOf reads every listed query. It fails only when the registration
// table changes between the listing and a read (a follower mid-rebuild).
func stateOf(c *Service) (catState, error) {
	out := catState{}
	for _, ex := range c.List() {
		v, err := c.Result(ex.ID)
		if err != nil {
			return nil, err
		}
		g, err := c.ResultGrouped(ex.ID)
		if err != nil {
			return nil, err
		}
		out[ex.ID] = queryState{v, g}
	}
	return out, nil
}

func readState(t *testing.T, c *Service) catState {
	t.Helper()
	out, err := stateOf(c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffState names the first query on which two states differ ("" if none).
func diffState(got, want catState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d queries, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return fmt.Sprintf("query %d missing", id)
		}
		if g.scalar != w.scalar || !groupsEqual(g.groups, w.groups) {
			return fmt.Sprintf("query %d: scalar %v, want %v (grouped equal: %v)", id, g.scalar, w.scalar, groupsEqual(g.groups, w.groups))
		}
	}
	return ""
}

// reference feeds batches to a fresh in-memory catalog serving sqls (in
// registration order, so QueryIDs line up) and returns its drained state.
func reference(t *testing.T, sqls []string, batches [][]engine.Event) catState {
	t.Helper()
	ref, err := New(Options{PartitionBy: []string{"sym"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, sql := range sqls {
		if _, _, err := ref.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.DrainAll(); err != nil {
		t.Fatal(err)
	}
	return readState(t, ref)
}

func chunk(events []engine.Event, size int) [][]engine.Event {
	var out [][]engine.Event
	for len(events) > 0 {
		n := min(size, len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// walRecordEnds parses a WAL byte image and returns the file offsets at
// which each record ends; ends[0] is the end of the header.
func walRecordEnds(w []byte) []int {
	off := 4 // "RPWL"
	off += 8 + int(binary.LittleEndian.Uint32(w[off:]))
	ends := []int{off}
	for off+8 <= len(w) {
		n := int(binary.LittleEndian.Uint32(w[off:]))
		if off+8+n > len(w) {
			break
		}
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

// walEvents counts the events a generation's shared WAL would replay.
func walEvents(t *testing.T, dir string, gen uint64) int {
	t.Helper()
	n := 0
	if _, _, err := checkpoint.ReadWAL(walPath(dir, gen), func(rec []byte) error {
		k, err := recordEvents(rec)
		n += k
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// recordEvents validates one WAL record and counts its events.
func recordEvents(rec []byte) (int, error) {
	var d engine.RowDecoder
	var rows engine.Rows
	return d.DecodeRecord(&rows, rec)
}

// recoverState recovers dir and returns the drained state.
func recoverState(t *testing.T, dir string) catState {
	t.Helper()
	rec, err := Recover(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.DrainAll(); err != nil {
		t.Fatal(err)
	}
	return readState(t, rec)
}

// TestCatalogTornWALTail cuts the shared WAL at every byte offset of its last
// record — the shapes a crash mid-append leaves — and checks recovery lands
// bit-identically on a reference fed exactly the complete records: a torn
// record is dropped whole, never half-applied, for every registered query.
func TestCatalogTornWALTail(t *testing.T) {
	sqls := []string{sqlVWAP, sqlVWAP90, sqlEq} // a shared probe lane and a distinct set
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	events := catEvents(13, 243, 7)
	batches := chunk(events, 40) // six full batches and a short last one
	for _, b := range batches {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(walPath(crash, 1))
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(full)
	if len(ends) != len(batches)+1 {
		t.Fatalf("WAL holds %d records, fed %d batches", len(ends)-1, len(batches))
	}
	lastStart, lastEnd := ends[len(ends)-2], ends[len(ends)-1]
	want := reference(t, sqls, batches[:len(batches)-1])
	whole := reference(t, sqls, batches)
	if diffState(want, whole) == "" {
		t.Fatal("the last batch changes nothing; the test could not tell a dropped record from an applied one")
	}
	step := 1
	if testing.Short() {
		step = 7
	}
	for cut := lastStart; cut < lastEnd; cut += step {
		d := crashCopy(t, crash)
		if err := os.Truncate(walPath(d, 1), int64(cut)); err != nil {
			t.Fatal(err)
		}
		if diff := diffState(recoverState(t, d), want); diff != "" {
			t.Fatalf("WAL cut at byte %d of [%d,%d): %s", cut, lastStart, lastEnd, diff)
		}
	}
	if diff := diffState(recoverState(t, crash), whole); diff != "" {
		t.Fatalf("uncut WAL: %s", diff)
	}
}

// TestCatalogWALOnlyRecovery covers state that exists nowhere but the log: a
// catalog that never checkpointed (every set replays from record 0), and a
// set founded after the last checkpoint, which has no snapshot directory and
// recovers from the WAL suffix past its registration alone.
func TestCatalogWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	events := catEvents(5, 900, 9)
	pre, mid, post := chunk(events[:300], 32), chunk(events[300:600], 32), chunk(events[600:], 32)
	for _, b := range pre {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	neverCheckpointed := crashCopy(t, dir)
	if diff := diffState(recoverState(t, neverCheckpointed), reference(t, []string{sqlVWAP}, pre)); diff != "" {
		t.Fatalf("never-checkpointed catalog: %s", diff)
	}

	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range mid {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	late, _, err := cat.Register(sqlEq) // structurally new: founds its own set mid-generation
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range post {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	var lateSet uint64
	for _, st := range cat.Stats() {
		if st.ID == late {
			lateSet = st.SetID
		}
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(setDir(crash, 2, lateSet)); !os.IsNotExist(err) {
		t.Fatalf("late set %d has a snapshot directory (stat: %v); the test needs it WAL-only", lateSet, err)
	}
	got := recoverState(t, crash)
	all := append(append(append([][]engine.Event{}, pre...), mid...), post...)
	if w := reference(t, []string{sqlVWAP}, all)[1]; got[1].scalar != w.scalar || !groupsEqual(got[1].groups, w.groups) {
		t.Fatalf("checkpointed query recovered %v, want %v", got[1].scalar, w.scalar)
	}
	// The late query saw only the batches after its registration.
	if w := reference(t, []string{sqlEq}, post)[1]; got[late].scalar != w.scalar || !groupsEqual(got[late].groups, w.groups) {
		t.Fatalf("WAL-only set recovered %v, want %v", got[late].scalar, w.scalar)
	}
}

// TestCatalogGenerationFallback plants the on-disk shape of a crash between
// snapshotting g<G+1>/ and the manifest swap — a next-generation directory
// (one snapshot torn), a next-generation WAL, and a manifest still naming G
// — and checks recovery uses generation G in full and sweeps the orphan.
func TestCatalogGenerationFallback(t *testing.T) {
	sqls := []string{sqlVWAP, sqlEq}
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	batches := chunk(catEvents(17, 600, 7), 50)
	for i, b := range batches {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := cat.Checkpoint(); err != nil { // generation 2, snapshots + a WAL suffix
				t.Fatal(err)
			}
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	// The interrupted rotation: g3/ cloned from g2/ with set 1's shard
	// snapshot cut in half, plus an empty g3 WAL. CATALOG still says 2.
	if err := checkpoint.Fork(filepath.Join(crash, "g2"), filepath.Join(crash, "g3")); err != nil {
		t.Fatal(err)
	}
	snap := checkpoint.SnapPath(setDir(crash, 3, 1), 1, 0)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := checkpoint.CreateWAL(walPath(crash, 3), checkpoint.Header{Gen: 3, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Options{Dir: crash})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if diff := diffState(readState(t, rec), reference(t, sqls, batches)); diff != "" {
		t.Fatalf("recovered from the wrong generation: %s", diff)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery rotated 2 -> 3 over the orphan: g3/ is now whole, g2 is gone.
	if _, _, err := checkpoint.ReadSnapshotFile(snap); err != nil {
		t.Fatalf("generation 3 still holds the torn orphan snapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(crash, "g2")); !os.IsNotExist(err) {
		t.Fatalf("generation 2 not removed after rotation (stat: %v)", err)
	}
	if diff := diffState(recoverState(t, crash), reference(t, sqls, batches)); diff != "" {
		t.Fatalf("second recovery: %s", diff)
	}
}

// TestCatalogCompactEvery checks that Options.CompactEvery rotates from the
// ingest path: at every batch boundary — any of which could be the crash —
// the WAL a recovery would replay holds fewer events than the bound plus one
// batch, generations actually advance, and the compacted directory still
// recovers exactly.
func TestCatalogCompactEvery(t *testing.T) {
	if _, err := New(Options{PartitionBy: []string{"sym"}, CompactEvery: 10}); err == nil {
		t.Fatal("CompactEvery without Dir accepted")
	}
	const bound, batchLen = 200, 16
	sqls := []string{sqlVWAP, sqlEq}
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: dir, CompactEvery: bound})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	batches := chunk(catEvents(9, 3000, 9), batchLen)
	for i, b := range batches {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if n := walEvents(t, dir, cat.dur.gen); n >= bound {
			t.Fatalf("after batch %d the WAL would replay %d events, bound %d", i, n, bound)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if cat.dur.gen < 10 {
		t.Fatalf("generation %d after %d events at CompactEvery %d: the log barely rotated", cat.dur.gen, len(batches)*batchLen, bound)
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if diff := diffState(recoverState(t, crash), reference(t, sqls, batches)); diff != "" {
		t.Fatalf("compacted directory: %s", diff)
	}
}

// TestCatalogRefusesOldFormats: a directory this build cannot read is refused
// by name — by New, Recover and Follow alike — and nothing is written beside
// the old files. The cases are the retired single-query layout, CATALOG
// manifests of versions 1 and 2, and a manifest cut short.
func TestCatalogRefusesOldFormats(t *testing.T) {
	oldManifest := func(version uint32) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			var rec strings.Builder
			e := checkpoint.NewEncoder(&rec)
			e.U32(version)
			e.U64(1) // gen
			e.U64(2) // nextID
			e.U64(2) // nextSet
			e.U32(1)
			e.Str("sym")
			e.U32(0) // no entries: the version word alone must refuse it
			var buf strings.Builder
			buf.WriteString(catalogMagic)
			if err := checkpoint.WriteRecord(&buf, []byte(rec.String())); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, catalogName), []byte(buf.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string)
		want  string
	}{
		{"single-query", func(t *testing.T, dir string) {
			if err := checkpoint.WriteManifest(dir, checkpoint.Manifest{Gen: 1, Shards: 2}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				w, err := checkpoint.CreateWAL(checkpoint.WALPath(dir, 1, i), checkpoint.Header{Gen: 1, Shard: uint32(i), ShardCount: 2})
				if err != nil {
					t.Fatal(err)
				}
				w.Close()
			}
		}, "single-query data directory"},
		{"catalog-v1", oldManifest(1), "format version 1"},
		{"catalog-v2", oldManifest(2), "format version 2"},
		{"truncated", func(t *testing.T, dir string) {
			cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cat.Register(sqlVWAP); err != nil {
				t.Fatal(err)
			}
			cat.Close()
			p := filepath.Join(dir, catalogName)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b[:len(b)-9], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "CATALOG manifest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			before := dirListing(t, dir)
			opt := Options{Dir: dir, PartitionBy: []string{"sym"}}
			_, newErr := New(opt)
			_, recErr := Recover(opt)
			_, folErr := Follow(opt, 0)
			for what, err := range map[string]error{"New": newErr, "Recover": recErr, "Follow": folErr} {
				if err == nil {
					t.Fatalf("%s accepted the directory", what)
				}
				// New on a directory that has a CATALOG refuses before looking
				// at its version; the boot path sends those to Recover.
				if what == "New" && tc.name != "single-query" {
					continue
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s error %q does not name the format (%q)", what, err, tc.want)
				}
			}
			if after := dirListing(t, dir); after != before {
				t.Fatalf("refusal wrote to the directory:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestCatalogRefusesBadProbeSpec rewrites the shared member of a two-member
// (SUM + COUNT) CATALOG with a probe kind or a residual operator no build
// writes. Recovery installs a shared entry's spec as its lane, so accepting
// one would panic a shard worker at the first ingest (an unknown kind) or
// silently read zero (an unknown operator): Recover and Follow must refuse
// the manifest, naming the entry and the value.
func TestCatalogRefusesBadProbeSpec(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*engine.ProbeSpec)
		want   string
	}{
		{"kind 3", func(s *engine.ProbeSpec) { s.Kind = 3 }, "probe kind 3"},
		{"kind 9", func(s *engine.ProbeSpec) { s.Kind = 9 }, "probe kind 9"},
		{"op 99", func(s *engine.ProbeSpec) {
			s.Residual, s.ResidualCol, s.ResidualOp, s.ResidualVal = true, "sym", 99, 2
		}, "residual operator 99"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{PartitionBy: []string{"sym"}, Dir: dir}
			cat, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{sqlVWAP, sqlCountVWAP} {
				if _, _, err := cat.Register(sql); err != nil {
					t.Fatal(err)
				}
			}
			if err := cat.Close(); err != nil {
				t.Fatal(err)
			}
			m, _, err := readCatalogFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			shared := -1
			for i, ent := range m.entries {
				if ent.shared {
					shared = i
				}
			}
			if shared < 0 {
				t.Fatal("the COUNT variant is not a shared member")
			}
			tc.mutate(&m.entries[shared].spec)
			if err := writeCatalogFile(dir, m); err != nil {
				t.Fatal(err)
			}
			rec, recErr := Recover(opt)
			if recErr == nil {
				rec.Close()
			}
			fol, folErr := Follow(opt, 0)
			if folErr == nil {
				fol.Close()
			}
			for what, err := range map[string]error{"Recover": recErr, "Follow": folErr} {
				if err == nil {
					t.Fatalf("%s accepted the manifest", what)
				}
				id := fmt.Sprintf("query %d", m.entries[shared].id)
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), id) {
					t.Fatalf("%s error %q does not name %s and %q", what, err, id, tc.want)
				}
			}
		})
	}
}

// dirListing is the sorted relative paths and sizes under dir.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(&sb, "%s:%d ", rel, info.Size())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// poisonBatches are batches some registered executor cannot maintain: the
// range-shift executor panics on a non-positive inner weight (a tuple that
// merely omits `volume` reads as weight 0), and a non-finite column or X
// either panics in the index or poisons a sum for good. Each hides its bad
// event among good ones.
func poisonBatches() map[string][]engine.Event {
	good := func(sym float64) engine.Event {
		return engine.Insert(query.Tuple{"sym": sym, "price": 7, "volume": 3, "a": 2})
	}
	with := func(bad engine.Event) []engine.Event { return []engine.Event{good(0), bad, good(1)} }
	return map[string][]engine.Event{
		"volume omitted":  with(engine.Insert(query.Tuple{"sym": 0, "price": 7, "a": 2})),
		"negative volume": with(engine.Insert(query.Tuple{"sym": 0, "price": 7, "volume": -4, "a": 2})),
		"infinite volume": with(engine.Insert(query.Tuple{"sym": 0, "price": 7, "volume": math.Inf(1), "a": 2})),
		"NaN price":       with(engine.Insert(query.Tuple{"sym": 0, "price": math.NaN(), "volume": 3, "a": 2})),
		"NaN X":           with(engine.Event{X: math.NaN(), Tuple: query.Tuple{"sym": 0, "price": 7, "volume": 3, "a": 2}}),
	}
}

// TestCatalogRefusesPoisonBatch is the admission contract: a batch holding an
// event some state set cannot maintain is refused whole with
// engine.ErrBadEvent — nothing logged, nothing applied, every query's
// Rejected counter moved by the batch size — the catalog keeps serving, and
// after a restart on the same directory it recovers to the state of the good
// batches alone. Without the check the bad event reaches the shard worker
// after the batch is in the shared WAL: the process dies, and dies again on
// every recovery.
func TestCatalogRefusesPoisonBatch(t *testing.T) {
	sqls := []string{sqlVWAP, sqlVWAP90, sqlEq, sqlNested}
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	batches := chunk(catEvents(23, 400, 3), 25)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	before, logged := readState(t, cat), walEvents(t, dir, cat.dur.gen)

	var refused uint64
	for name, bad := range poisonBatches() {
		if err := cat.ApplyBatch(bad); !errors.Is(err, engine.ErrBadEvent) {
			t.Fatalf("%s: ApplyBatch error %v, want engine.ErrBadEvent", name, err)
		}
		refused += uint64(len(bad))
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if d := diffState(readState(t, cat), before); d != "" {
		t.Fatalf("a refused batch changed a result: %s", d)
	}
	if got := walEvents(t, dir, cat.dur.gen); got != logged {
		t.Fatalf("refused batches reached the WAL: %d events logged, %d before", got, logged)
	}
	for _, st := range cat.Stats() {
		if st.Rejected != refused {
			t.Fatalf("query %d: Rejected %d, want %d", st.ID, st.Rejected, refused)
		}
	}

	for _, b := range batches[half:] {
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatalf("good batch after a refusal: %v", err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want := reference(t, sqls, batches)
	if d := diffState(readState(t, cat), want); d != "" {
		t.Fatalf("after the refusals: %s", d)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if d := diffState(recoverState(t, dir), want); d != "" {
		t.Fatalf("recovered: %s", d)
	}
}

// TestOptionsValidatedBeforeDir pins that a negative serving option fails
// New, Recover and Follow up front, naming the option, before any of them
// touches a data directory: New creates nothing, and a recoverable directory
// is left exactly as it was (Recover would otherwise rotate a generation).
func TestOptionsValidatedBeforeDir(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	if err := cat.ApplyBatch(catEvents(5, 200, 4)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	for _, tc := range []struct {
		field string
		opt   Options
	}{
		{"Shards", Options{Shards: -1}},
		{"QueueLen", Options{QueueLen: -2}},
		{"BatchSize", Options{BatchSize: -1}},
	} {
		want := "Options." + tc.field
		opt := tc.opt
		opt.PartitionBy = []string{"sym"}
		opt.Dir = filepath.Join(t.TempDir(), "fresh")
		if c, err := New(opt); err == nil || !strings.Contains(err.Error(), want) {
			if c != nil {
				c.Close()
			}
			t.Fatalf("New with negative %s = %v, want an error naming %s", tc.field, err, want)
		}
		if _, err := os.Stat(opt.Dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused New touched its data dir (stat: %v)", err)
		}
		opt.Dir = dir
		if _, err := Recover(opt); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover with negative %s = %v, want an error naming %s", tc.field, err, want)
		}
		if _, err := Follow(opt, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Follow with negative %s = %v, want an error naming %s", tc.field, err, want)
		}
		if after := dirListing(t, dir); after != before {
			t.Fatalf("refused recovery wrote to the directory:\nbefore %s\nafter  %s", before, after)
		}
	}
}

// TestCatalogInexactWeightsRecover logs and replays ROADMAP item 1's crash
// trace: integer prices, volumes k·0.1 (every running volume sum rounds),
// 30 % deletes of live rows. Before the level tree a shard worker panicked on
// such a batch after the catalog had logged it, so Recover replayed the batch
// and panicked again. Now every batch must apply, and Recover must replay
// the checkpoint and the log to the state the uninterrupted catalog reached,
// bit for bit.
func TestCatalogInexactWeightsRecover(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var live []query.Tuple
	var events []engine.Event
	for len(events) < 1200 {
		if len(live) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(live))
			events = append(events, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		tup := query.Tuple{"sym": float64(rng.Intn(3)), "price": float64(rng.Intn(50)), "volume": 0.1 * float64(rng.Intn(9)+1)}
		live = append(live, tup)
		events = append(events, engine.Insert(tup))
	}
	batches := chunk(events, 32)
	for i, b := range batches {
		if i == len(batches)/2 {
			if err := cat.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	if diff := diffState(recoverState(t, crash), readState(t, cat)); diff != "" {
		t.Fatalf("recovered catalog: %s", diff)
	}
}

// TestCatalogRotationAllOrNothing fails one set's snapshot in the middle of
// a rotation whose sets snapshot concurrently. Checkpoint must return the
// error only after every other set's snapshot has returned, leave CATALOG
// naming the old generation (so a crash now recovers exactly the state
// before the rotation), and leave the partial new generation to the next
// Checkpoint, which succeeds and sweeps it.
func TestCatalogRotationAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for k := 0; k < 4; k++ {
		if _, _, err := cat.Register(vwapVariant(k)); err != nil {
			t.Fatal(err)
		}
	}
	applyBatches(t, catEvents(23, 600, 9), 40, cat.ApplyBatch)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, catEvents(24, 1200, 9), 40, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want := resultBits(t, cat)
	gen := cat.dur.gen
	sets := cat.setList
	victim := sets[1].setID

	// The victim fails at once; every other set starts writing only after
	// that, so a rotation that returned at the first error would return
	// while they were still writing.
	injected := errors.New("injected snapshot failure")
	failed := make(chan struct{})
	var finished atomic.Int32
	orig := rotateSnapshot
	rotateSnapshot = func(s *Service, set *execSet, dst string) error {
		if set.setID == victim {
			close(failed)
			return injected
		}
		<-failed
		err := orig(s, set, dst)
		finished.Add(1)
		return err
	}
	err = cat.Checkpoint()
	rotateSnapshot = orig
	if !errors.Is(err, injected) {
		t.Fatalf("Checkpoint = %v, want the injected failure", err)
	}
	if n := int(finished.Load()); n != len(sets)-1 {
		t.Fatalf("Checkpoint returned when %d of the other %d sets' snapshots had", n, len(sets)-1)
	}
	if _, err := os.Stat(checkpoint.SnapPath(setDir(dir, gen+1, sets[0].setID), 1, 0)); err != nil {
		t.Fatalf("the failed rotation left no partial generation: %v", err)
	}
	m, _, err := readCatalogFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.gen != gen {
		t.Fatalf("CATALOG names generation %d after a failed rotation, want %d", m.gen, gen)
	}
	recoverBits := func() string {
		rec, err := Recover(Options{Dir: crashCopy(t, dir), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if err := rec.DrainAll(); err != nil {
			t.Fatal(err)
		}
		return resultBits(t, rec)
	}
	if got := recoverBits(); got != want {
		t.Fatalf("recovery after the failed rotation differs from the state before it:\n got\n%s\n want\n%s", got, want)
	}

	stale := filepath.Join(dir, fmt.Sprintf("g%d", gen+1), "stale")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after a failed rotation: %v", err)
	}
	if m, _, err = readCatalogFile(dir); err != nil || m.gen != gen+1 {
		t.Fatalf("CATALOG after the retried rotation: generation %d, %v; want %d", m.gen, err, gen+1)
	}
	ents, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("g%d", gen+1)))
	if err != nil {
		t.Fatal(err)
	}
	var got, wantDirs []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	for _, set := range sets {
		wantDirs = append(wantDirs, fmt.Sprintf("s%d", set.setID))
	}
	slices.Sort(wantDirs)
	if !slices.Equal(got, wantDirs) {
		t.Fatalf("generation %d holds %v, want exactly the sets' snapshots %v", gen+1, got, wantDirs)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("g%d", gen))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("generation %d survived the rotation: %v", gen, err)
	}
	if got := resultBits(t, cat); got != want {
		t.Fatalf("the live catalog's results moved across the rotations")
	}
	if got := recoverBits(); got != want {
		t.Fatalf("recovery after the retried rotation differs:\n got\n%s\n want\n%s", got, want)
	}
}
