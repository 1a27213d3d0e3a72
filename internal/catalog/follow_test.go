package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

// prefixSet is, per query, every scalar and every grouped result the primary
// published at a batch boundary. A follower applies one record to its
// executor sets one after another and readers take no lock across queries, so
// the prefix property is per read, not per catalog: each scalar and each
// grouped result a follower serves must be in the set.
type prefixSet map[QueryID]map[string]bool

func encodeGroups(gs []engine.GroupResult) string {
	b := []byte{'g'}
	for _, g := range gs {
		for _, k := range g.Key {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(k))
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(g.Value))
	}
	return string(b)
}

func encodeScalar(v float64) string {
	return string(binary.BigEndian.AppendUint64([]byte{'s'}, math.Float64bits(v)))
}

func (p prefixSet) add(st catState) {
	for id, q := range st {
		if p[id] == nil {
			p[id] = map[string]bool{}
		}
		p[id][encodeScalar(q.scalar)] = true
		p[id][encodeGroups(q.groups)] = true
	}
}

// missing names a read in st the primary never published ("" if none).
func (p prefixSet) missing(st catState) string {
	for id, q := range st {
		if !p[id][encodeScalar(q.scalar)] {
			return fmt.Sprintf("query %d scalar %v", id, q.scalar)
		}
		if !p[id][encodeGroups(q.groups)] {
			return fmt.Sprintf("query %d grouped %v", id, q.groups)
		}
	}
	return ""
}

// waitFollower polls until the follower serves exactly want, passing every
// state it observes on the way to check (nil to skip).
func waitFollower(t *testing.T, fol *Service, want catState, what string, check func(catState)) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := stateOf(fol)
		if err == nil {
			if check != nil {
				check(got)
			}
			if diffState(got, want) == "" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: follower never converged (%s; read error %v; tailer error %v)",
				what, diffState(got, want), err, fol.Close())
		}
		time.Sleep(time.Millisecond)
	}
}

// followSub is an in-process subscriber on a follower that survives
// rebuilds: when the follower swaps its executor sets the frames channel
// closes, and it re-attaches quoting its old epoch and versions. The
// contract under test: after such a re-attach every shard's first frame is
// Full — the stale base is never extended by a delta.
type followSub struct {
	t        *testing.T
	fol      *Service
	id       QueryID
	sub      *serve.Subscription
	view     *serve.View
	epoch    uint64
	needFull map[int]bool
	reseeds  int
}

func (fs *followSub) attach() {
	fs.t.Helper()
	var resume []serve.ShardVersion
	if fs.view != nil {
		resume = fs.view.Versions()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Epoch and Subscribe are two calls; a rebuild between them is caught
		// by re-reading the epoch afterwards.
		epoch, err := fs.fol.Epoch(fs.id)
		if err == nil {
			var sub *serve.Subscription
			if sub, err = fs.fol.Subscribe(fs.id, serve.SubOptions{Resume: resume, ResumeEpoch: fs.epoch}); err == nil {
				if again, eerr := fs.fol.Epoch(fs.id); eerr == nil && again == epoch {
					fs.sub = sub
					if epoch != fs.epoch {
						fs.epoch, fs.view, fs.needFull = epoch, serve.NewView(), map[int]bool{}
						for i := 0; i < fs.fol.Shards(); i++ {
							fs.needFull[i] = true
						}
						fs.reseeds++
					}
					return
				}
				sub.Close()
			}
		}
		if time.Now().After(deadline) {
			fs.t.Fatalf("subscriber could not re-attach: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// sync folds frames until the view equals want.
func (fs *followSub) sync(want []engine.GroupResult, what string) {
	fs.t.Helper()
	deadline := time.After(15 * time.Second)
	for !groupsEqual(fs.view.Grouped(), want) {
		select {
		case fr, ok := <-fs.sub.Frames():
			if !ok {
				fs.attach()
				continue
			}
			if fs.needFull[fr.Shard] && !fr.Full {
				fs.t.Fatalf("%s: shard %d got a delta (base %d) as its first frame after a rebuild", what, fr.Shard, fr.Base)
			}
			delete(fs.needFull, fr.Shard)
			if err := fs.view.Apply(fr); err != nil {
				fs.t.Fatalf("%s: %v", what, err)
			}
		case <-deadline:
			fs.t.Fatalf("%s: subscriber view never converged:\n got %v\nwant %v", what, fs.view.Grouped(), want)
		}
	}
}

// TestFollowCatchUp is the follower's differential proof on a live shared
// directory: booted mid-stream on a different shard count, it converges bit
// for bit with the primary — every query's scalar and grouped results, and a
// subscriber's view of a shared probe lane — at every primary barrier, while
// the primary ingests, checkpoints, and registers and unregisters queries at
// runtime. It refuses every write.
func TestFollowCatchUp(t *testing.T) {
	dir := t.TempDir()
	primary, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	var ids []QueryID
	for _, sql := range []string{sqlVWAP, sqlVWAP90, sqlEq} { // 1 and 2 share a set through probe lanes
		id, _, err := primary.Register(sql)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	events := catEvents(31, 4000, 13)
	feed := func(from, to int) {
		t.Helper()
		applyBatches(t, events[from:to], 50, primary.ApplyBatch)
		if err := primary.DrainAll(); err != nil {
			t.Fatal(err)
		}
	}
	feed(0, 1000)

	fol, err := Follow(Options{Dir: dir, Shards: 3}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fs := &followSub{t: t, fol: fol, id: ids[1]}
	fs.attach()
	barrier := func(what string) {
		t.Helper()
		waitFollower(t, fol, readState(t, primary), what, nil)
		want, err := primary.ResultGrouped(fs.id)
		if err != nil {
			t.Fatal(err)
		}
		fs.sync(want, what)
	}
	barrier("boot")

	feed(1000, 1600)
	barrier("follow")

	// Rotation: the generation changes under the follower.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(1600, 2200)
	barrier("post-rotation")
	if fs.reseeds < 2 {
		t.Fatalf("subscriber saw %d epochs across a rotation, want the boot one and a reseed", fs.reseeds)
	}

	// A late joiner mid-generation: committed on the primary by a fork
	// snapshot and a manifest rewrite within the generation.
	late, _, err := primary.Register(sqlVWAP60)
	if err != nil {
		t.Fatal(err)
	}
	feed(2200, 2800)
	barrier("post-register")
	if _, err := fol.Result(late); err != nil {
		t.Fatalf("follower does not serve the query registered at runtime: %v", err)
	}

	if err := primary.Unregister(ids[2]); err != nil {
		t.Fatal(err)
	}
	feed(2800, 3400)
	barrier("post-unregister")
	if _, err := fol.Result(ids[2]); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("follower still answers the unregistered query: %v", err)
	}

	// The same through auto-compaction-style back-to-back rotations.
	for i := 3400; i < 4000; i += 200 {
		feed(i, i+200)
		if err := primary.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	barrier("post-churn")

	if err := fol.ApplyBatch(events[:1]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower ApplyBatch = %v, want ErrReadOnly", err)
	}
	if _, _, err := fol.Register(sqlNested); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Register = %v, want ErrReadOnly", err)
	}
	if err := fol.Unregister(ids[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Unregister = %v, want ErrReadOnly", err)
	}
	if err := fol.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Checkpoint = %v, want ErrReadOnly", err)
	}
	fs.sub.Close()
	if err := fol.Close(); err != nil {
		t.Fatalf("follower tailer failed: %v", err)
	}
}

// TestFollowChaos is the crash/lag half: a follower fed a WAL that grows by
// random byte amounts (torn tails included), killed and restarted at random
// points, must never serve a state that is not a batch-boundary prefix of the
// primary's history — for any of its queries — and must converge bit for bit
// once the log is complete; then a new generation carrying a runtime register
// and unregister is staged under it mid-flight and it must rebuild onto that.
func TestFollowChaos(t *testing.T) {
	primDir, repDir := t.TempDir(), t.TempDir()
	primary, err := New(Options{PartitionBy: []string{"sym"}, Dir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for _, sql := range []string{sqlVWAP, sqlVWAP90, sqlEq} {
		if _, _, err := primary.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	copyFile := func(rel string) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(primDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(repDir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+".tmp", b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(dst+".tmp", dst); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(catalogName) // generation 1, three queries, nothing ingested

	// One WAL record per batch; the state at every batch boundary is the
	// complete set of states a correct follower may serve.
	prefixes := prefixSet{}
	prefixes.add(readState(t, primary))
	var boundaries []catState
	step := func(b []engine.Event) {
		t.Helper()
		if err := primary.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := primary.DrainAll(); err != nil {
			t.Fatal(err)
		}
		st := readState(t, primary)
		prefixes.add(st)
		boundaries = append(boundaries, st)
	}
	for _, b := range chunk(catEvents(53, 2400, 7), 40) {
		step(b)
	}
	full, err := os.ReadFile(walPath(primDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(full)
	if len(ends) != len(boundaries)+1 {
		t.Fatalf("WAL holds %d records, fed %d batches", len(ends)-1, len(boundaries))
	}
	staged := walPath(repDir, 1)
	grow := func(from, to int) {
		t.Helper()
		f, err := os.OpenFile(staged, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[from:to]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// atCut is the state after the complete records within the first n bytes.
	atCut := func(n int) catState {
		k := 0
		for k+1 < len(ends) && ends[k+1] <= n {
			k++
		}
		if k == 0 {
			return reference(t, []string{sqlVWAP, sqlVWAP90, sqlEq}, nil)
		}
		return boundaries[k-1]
	}

	rng := rand.New(rand.NewSource(97))
	cut := ends[0] + 3 // past the header, mid-first-record
	grow(0, cut)
	boot := func() *Service {
		t.Helper()
		f, err := Follow(Options{Dir: repDir}, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fol := boot()
	defer func() { fol.Close() }()
	isPrefix := func(st catState) {
		t.Helper()
		if miss := prefixes.missing(st); miss != "" {
			t.Fatalf("follower serves a state that is no batch-boundary prefix: %s", miss)
		}
	}
	for cut < len(full) {
		next := min(cut+1+rng.Intn(512), len(full)) // often a torn tail
		grow(cut, next)
		cut = next
		waitFollower(t, fol, atCut(cut), "after growth", isPrefix)
		if rng.Intn(6) == 0 {
			// Kill the tailer and boot a fresh follower: it replays the staged
			// prefix from scratch and must land on the same state.
			if err := fol.Close(); err != nil {
				t.Fatal(err)
			}
			fol = boot()
			waitFollower(t, fol, atCut(cut), "after restart", isPrefix)
		}
	}

	// Phase 2: rotate the primary, change its registrations at runtime, keep
	// feeding; then stage generation 2 under the running follower the way the
	// primary writes it — snapshots, WAL, manifest last.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more := chunk(catEvents(59, 800, 7), 40)
	for _, b := range more[:8] {
		step(b)
	}
	if _, _, err := primary.Register(sqlVWAP60); err != nil {
		t.Fatal(err)
	}
	if err := primary.Unregister(3); err != nil {
		t.Fatal(err)
	}
	for _, b := range more[8:] {
		step(b)
	}
	if err := filepath.Walk(filepath.Join(primDir, "g2"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			rel, _ := filepath.Rel(primDir, path)
			copyFile(rel)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	copyFile(filepath.Base(walPath(primDir, 2)))
	copyFile(catalogName)
	waitFollower(t, fol, readState(t, primary), "post-rotation", nil)
	if err := fol.Close(); err != nil {
		t.Fatalf("follower tailer failed: %v", err)
	}
}

// TestFollowRefusesNonCheckpoint checks the boot-time error paths.
func TestFollowRefusesNonCheckpoint(t *testing.T) {
	if _, err := Follow(Options{Dir: t.TempDir()}, 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("follower booted from an empty directory: %v", err)
	}
	if _, err := Follow(Options{}, 0); err == nil {
		t.Fatal("follower booted without a directory")
	}
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, err := Follow(Options{Dir: dir, PartitionBy: []string{"other"}}, 0); err == nil {
		t.Fatal("follower accepted partition columns the manifest contradicts")
	}
}
