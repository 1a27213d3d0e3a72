package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
)

// groupedMap flattens ResultGrouped into partition-key -> value (all serving
// tests partition by a single column).
func groupedMap(svc *Service) map[float64]float64 {
	out := map[float64]float64{}
	for _, g := range svc.ResultGrouped() {
		out[g.Key[0]] = g.Value
	}
	return out
}

func requireSameGroups(t *testing.T, ctx string, got, want map[float64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", ctx, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: partition %v = %v (present=%v), want %v", ctx, k, g, ok, w)
		}
	}
}

// exportDir runs a service over events on the given shard count, exports a
// checkpoint of the drained state to dir, and closes the service.
func exportDir(t *testing.T, dir string, shards int, events []engine.Event) {
	t.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyEach(t, svc, events)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMatchesReference is the core restore differential: a checkpoint
// exported on three shards must restore to exactly the serial reference state
// — under the original shard count and under different ones, which forces the
// partitions to rehash.
func TestRecoverMatchesReference(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 5000, 17)
	dir := t.TempDir()
	exportDir(t, dir, 3, events)
	want := serialReference(t, q, events)
	for _, shards := range []int{1, 2, 3, 5} {
		rec, err := RecoverForQuery(dir, q, []string{"sym"}, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireSameGroups(t, "recovered", groupedMap(rec), want)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverResumesService restores, applies more events, exports again and
// restores again: the full resume cycle, across two shard-count changes.
func TestRecoverResumesService(t *testing.T) {
	q := vwapSpec()
	first := symEvents(21, 2500, 13)
	dir := t.TempDir()
	exportDir(t, dir, 3, first)

	rec, err := RecoverForQuery(dir, q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	second := symEvents(22, 2500, 13)
	applyEach(t, rec, second)
	if err := rec.Drain(); err != nil {
		t.Fatal(err)
	}
	all := append(append([]engine.Event(nil), first...), second...)
	want := serialReference(t, q, all)
	requireSameGroups(t, "resumed", groupedMap(rec), want)
	dir2 := t.TempDir()
	if err := rec.Checkpoint(dir2); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := RecoverForQuery(dir2, q, []string{"sym"}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroups(t, "re-recovered", groupedMap(rec2), want)
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExportCheckpoint snapshots a live service to a directory, keeps
// serving, and recovers from the export.
func TestExportCheckpoint(t *testing.T) {
	q := vwapSpec()
	events := symEvents(19, 1500, 11)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	applyEach(t, svc, events)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(t.TempDir(), "export")
	if err := svc.Checkpoint(export); err != nil {
		t.Fatal(err)
	}
	// The live service keeps running after an export.
	if err := svc.ApplyBatch(events[:1]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverForQuery(export, q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroups(t, "export", groupedMap(rec), serialReference(t, q, events))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableErrors pins the error surface: Checkpoint after Close returns
// ErrClosed, and RecoverForQuery refuses a directory that holds no checkpoint
// and a checkpoint whose snapshot is damaged — it must error rather than
// silently serve corrupt state.
func TestDurableErrors(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}

	if _, err := RecoverForQuery(t.TempDir(), q, []string{"sym"}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not a checkpoint directory") {
		t.Fatalf("Recover from empty dir = %v", err)
	}

	dir := t.TempDir()
	exportDir(t, dir, 2, symEvents(3, 50, 3))

	snap := checkpoint.SnapPath(dir, 1, 1)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverForQuery(dir, q, []string{"sym"}, Options{Shards: 2}); err == nil {
		t.Fatal("recovery from a corrupt snapshot succeeded")
	}
}

// TestCheckpointFixtureBytes pins the snapshot format: a two-shard VWAP
// state checkpointed by the streaming snapshot writer must reproduce, byte
// for byte, the files testdata/checkpoint-2shard holds — written for the
// same state by the whole-shard writer it replaced (commit 624f443), which
// assembled every partition's state in memory before writing the file.
func TestCheckpointFixtureBytes(t *testing.T) {
	dir := t.TempDir()
	exportDir(t, dir, 2, symEvents(29, 600, 20))
	want := filepath.Join("testdata", "checkpoint-2shard")
	ents, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		w, err := os.ReadFile(filepath.Join(want, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %d bytes differ from the fixture's %d", ent.Name(), len(g), len(w))
		}
	}
	if got, _ := os.ReadDir(dir); len(got) != len(ents) {
		t.Errorf("checkpoint wrote %d files, the fixture has %d", len(got), len(ents))
	}
}
