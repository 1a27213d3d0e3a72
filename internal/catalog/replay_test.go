package catalog

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
)

// replayTrace is the coalescing replay's fixture: a durable catalog on two
// shards fed tiny records (one to three events), with a state set founded at
// the start (sqlEq), a family (sqlVWAP) joined mid-stream by a late variant
// (sqlVWAP90, a fork that advances the family's since), and a distinct set
// (sqlNested) founded later still. Both sinces fall inside what would
// otherwise be one flush: the whole log is far below the drain bound.
type replayTrace struct {
	dir      string
	cat      *Service
	events   []engine.Event
	batches  [][]engine.Event
	sqls     []string
	ids      []QueryID
	from     []int    // per query: the first event its dedicated service is fed
	cuts     []uint64 // the sets' sinces inside the log, ascending
	nRecords int
}

func newReplayTrace(t *testing.T) *replayTrace {
	t.Helper()
	tr := &replayTrace{dir: t.TempDir()}
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: tr.dir})
	if err != nil {
		t.Fatal(err)
	}
	tr.cat = cat
	t.Cleanup(func() { cat.Close() })
	tr.events = catEvents(91, 900, 9)
	for i := 0; i < len(tr.events); {
		n := min(1+i%3, len(tr.events)-i)
		tr.batches = append(tr.batches, tr.events[i:i+n])
		i += n
	}
	register := func(sql string, from int) Explain {
		id, ex, err := cat.Register(sql)
		if err != nil {
			t.Fatal(err)
		}
		tr.sqls, tr.ids, tr.from = append(tr.sqls, sql), append(tr.ids, id), append(tr.from, from)
		return ex
	}
	fed := 0
	feed := func(records int) {
		for _, b := range tr.batches[tr.nRecords : tr.nRecords+records] {
			if err := cat.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			fed += len(b)
		}
		tr.nRecords += records
	}
	register(sqlEq, 0)
	register(sqlVWAP, 0)
	feed(150)
	// A retroactive joiner inherits the family's history: its dedicated
	// service sees every event.
	if ex := register(sqlVWAP90, 0); ex.Since != 150 {
		t.Fatalf("late joiner's set since %d, want 150", ex.Since)
	}
	feed(150)
	if ex := register(sqlNested, fed); ex.Since != 300 || len(ex.SharedWith) != 0 {
		t.Fatalf("mid-stream set: since %d, shared with %v; want its own set since 300", ex.Since, ex.SharedWith)
	}
	feed(len(tr.batches) - tr.nRecords)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	tr.cuts = []uint64{150, 300}
	return tr
}

// checkDedicated compares every query of c bit for bit with a dedicated
// serve.ForQuery fed the events from the query's founding on.
func (tr *replayTrace) checkDedicated(t *testing.T, c *Service, what string) {
	t.Helper()
	for i, sql := range tr.sqls {
		ref, err := serve.ForQuery(mustParse(t, sql), []string{"sym"}, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyBatch(tr.events[tr.from[i]:]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Drain(); err != nil {
			t.Fatal(err)
		}
		got, err := c.Result(tr.ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(ref.Result()) {
			t.Errorf("%s: query %d (%s...) serves %v, dedicated service %v", what, tr.ids[i], sql[:30], got, ref.Result())
		}
		g, err := c.ResultGrouped(tr.ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.ResultGrouped(); !groupBitsEqual(g, want) {
			t.Errorf("%s: query %d grouped results differ from the dedicated service's", what, tr.ids[i])
		}
		ref.Close()
	}
}

// TestReplayCoalescesAcrossSince is the coalescing replay's differential
// proof: many tiny records, with two sets' sinces inside what would
// otherwise be one flush. Recovery and a follower's boot must both land bit
// for bit on the live catalog and on dedicated services, in exactly one
// flush per since-delimited run of records.
func TestReplayCoalescesAcrossSince(t *testing.T) {
	tr := newReplayTrace(t)
	live := resultBits(t, tr.cat)
	tr.checkDedicated(t, tr.cat, "live")
	rec, fol := crashCopy(t, tr.dir), crashCopy(t, tr.dir)

	r, err := Recover(Options{Dir: rec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if got := resultBits(t, r); got != live {
		t.Fatalf("recovered results differ from the live catalog's:\n got\n%s\n want\n%s", got, live)
	}
	tr.checkDedicated(t, r, "recovered")
	want := RecoveryStats{Records: uint64(tr.nRecords), Events: uint64(len(tr.events)), Flushes: uint64(len(tr.cuts) + 1)}
	if st := r.Recovery(); st.Records != want.Records || st.Events != want.Events || st.Flushes != want.Flushes {
		t.Errorf("recovery replayed %d records, %d events in %d flushes; want %d, %d in %d",
			st.Records, st.Events, st.Flushes, want.Records, want.Events, want.Flushes)
	}

	f, err := Follow(Options{Dir: fol, Shards: 2}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := resultBits(t, f); got != live {
		t.Fatalf("follower results differ from the live catalog's:\n got\n%s\n want\n%s", got, live)
	}
	tr.checkDedicated(t, f, "follower")
	if st := f.Recovery(); st.Flushes != want.Flushes || st.Records != want.Records {
		t.Errorf("follower boot replayed %d records in %d flushes, want %d in %d", st.Records, st.Flushes, want.Records, want.Flushes)
	}
}

// TestReplayTornTailInCoalescedRun cuts the WAL inside records that recovery
// would coalesce with their predecessors — the run past the last since, at
// its second record, in its middle and at its last — and checks recovery
// applies exactly the complete records before the cut, bit for bit with a
// live catalog fed those batches. (A cut before a since is no crash shape:
// the fork that set the since was taken after the log was flushed past it.)
func TestReplayTornTailInCoalescedRun(t *testing.T) {
	tr := newReplayTrace(t)
	crash := crashCopy(t, tr.dir)
	full, err := os.ReadFile(walPath(crash, 1))
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(full)
	if len(ends) != tr.nRecords+1 {
		t.Fatalf("WAL holds %d records, fed %d batches", len(ends)-1, tr.nRecords)
	}
	for _, k := range []int{301, 420, tr.nRecords - 1} {
		// Cut inside record k: records [0, k) survive.
		cut := (ends[k] + ends[k+1]) / 2
		d := crashCopy(t, crash)
		if err := os.Truncate(walPath(d, 1), int64(cut)); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(Options{Dir: d, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DrainAll(); err != nil {
			t.Fatal(err)
		}
		got := resultBits(t, r)
		st := r.Recovery()
		r.Close()
		if st.Records != uint64(k) {
			t.Errorf("cut in record %d: replayed %d records", k, st.Records)
		}
		if want := prefixBits(t, tr, k); got != want {
			t.Errorf("cut in record %d: recovered results differ from a catalog fed the first %d batches:\n got\n%s\n want\n%s", k, k, got, want)
		}
	}
}

// prefixBits registers the trace's queries at the records they arrived at
// and feeds the first k batches, past the last registration, to a fresh
// in-memory catalog, and renders its results.
func prefixBits(t *testing.T, tr *replayTrace, k int) string {
	t.Helper()
	c, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	at := []int{0, 0, 150, 300} // the record index each query registered at
	for i := 0; i < k; i++ {
		for q, r := range at {
			if r == i {
				if _, _, err := c.Register(tr.sqls[q]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.ApplyBatch(tr.batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DrainAll(); err != nil {
		t.Fatal(err)
	}
	return resultBits(t, c)
}

// TestFollowPollFlushes steps a follower one poll at a time (its ticker
// never fires) while the primary appends tiny records: after each poll, and
// a drain of the follower's own sets, its reads must match the primary's
// after its drain bit for bit — a poll never holds a record back for the
// next.
func TestFollowPollFlushes(t *testing.T) {
	dir := t.TempDir()
	primary, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for _, sql := range []string{sqlVWAP, sqlVWAP90, sqlEq} {
		if _, _, err := primary.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	events := catEvents(17, 600, 7)
	applyBatches(t, events[:100], 2, primary.ApplyBatch)
	fol, err := Follow(Options{Dir: dir, Shards: 2}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	for round, size := range []int{1, 3, 2, 1} {
		lo, hi := 100+round*125, 100+(round+1)*125
		applyBatches(t, events[lo:hi], size, primary.ApplyBatch)
		if err := primary.DrainAll(); err != nil {
			t.Fatal(err)
		}
		if err := fol.follow.step(); err != nil {
			t.Fatal(err)
		}
		if err := fol.DrainAll(); err != nil {
			t.Fatal(err)
		}
		if got, want := resultBits(t, fol), resultBits(t, primary); got != want {
			t.Fatalf("poll %d: follower differs from the drained primary:\n got\n%s\n want\n%s", round, got, want)
		}
	}
}

// BenchmarkRecover is recovery on the stack benchmark's multi-distinct
// shape: the 24 registrations of multiDistinctSQL (16 distinct state sets)
// on 2 shards, a checkpoint of 8 192 rows over 512 partitions, and a WAL
// tail of 4 000 six-event records — half inserts, half deletes of live rows,
// as the paced phase writes it. Each iteration recovers a fresh copy of the
// crashed directory. It reports the replay phase's ns per replayed event
// (Recovery().Replay: the WAL read and applied until every set has
// published it), the records per flush, and the restore and rotation phases
// in ms; ns/op is the whole of Recover.
func BenchmarkRecover(b *testing.B) {
	const (
		parts, preload   = 512, 8192
		records, perRec  = 4000, 6
		preloadBatchSize = 256
	)
	dir := b.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for _, sql := range multiDistinctSQL() {
		if _, _, err := cat.Register(sql); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	row := func() query.Tuple {
		return query.Tuple{"sym": float64(rng.Intn(parts)), "price": float64(1 + rng.Intn(64)), "volume": float64(1 + rng.Intn(8))}
	}
	live := make([]query.Tuple, preload)
	for i := range live {
		live[i] = row()
	}
	for i := 0; i < preload; i += preloadBatchSize {
		batch := make([]engine.Event, preloadBatchSize)
		for j := range batch {
			batch[j] = engine.Insert(live[i+j])
		}
		if err := cat.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	batch := make([]engine.Event, perRec)
	for r := 0; r < records; r++ {
		for j := range batch {
			if j%2 == 0 {
				t := row()
				live = append(live, t)
				batch[j] = engine.Insert(t)
			} else {
				k := rng.Intn(len(live))
				batch[j] = engine.Delete(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if err := cat.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.Close(); err != nil {
		b.Fatal(err)
	}
	var sum RecoveryStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := crashCopy(b, dir)
		b.StartTimer()
		rec, err := Recover(Options{Dir: d, Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := rec.Recovery()
		sum.Restore += st.Restore
		sum.Replay += st.Replay
		sum.Rotate += st.Rotate
		sum.Records += st.Records
		sum.Events += st.Events
		sum.Flushes += st.Flushes
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(d); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if sum.Records != uint64(b.N*records) {
		b.Fatalf("replayed %d records in %d recoveries, want %d each", sum.Records, b.N, records)
	}
	b.ReportMetric(float64(sum.Replay.Nanoseconds())/float64(sum.Events), "ns/event")
	b.ReportMetric(float64(sum.Records)/float64(sum.Flushes), "records/flush")
	b.ReportMetric(float64(sum.Restore.Milliseconds())/float64(b.N), "restore-ms")
	b.ReportMetric(float64(sum.Rotate.Milliseconds())/float64(b.N), "rotate-ms")
}

// BenchmarkCheckpoint is one generation rotation on the stack benchmark's
// multi-distinct shape: the 24 registrations of multiDistinctSQL (16
// distinct state sets) on 2 shards holding 20 000 rows over 512 partitions.
// Each checkpoint drains and snapshots every set, creates the next WAL and
// swaps the manifest. One row is ingested, untimed, before each: a set with
// nothing new since the last rotation is carried forward by copying its
// snapshot files, which would time a file copy instead. It reports ms, B
// and allocations per checkpoint (all goroutines' allocations: the
// snapshots are written by the shard workers).
func BenchmarkCheckpoint(b *testing.B) {
	const parts, rows, batchSize = 512, 20000, 250
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	for _, sql := range multiDistinctSQL() {
		if _, _, err := cat.Register(sql); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	row := func() engine.Event {
		return engine.Insert(query.Tuple{"sym": float64(rng.Intn(parts)), "price": float64(1 + rng.Intn(64)), "volume": float64(1 + rng.Intn(8))})
	}
	batch := make([]engine.Event, batchSize)
	for i := 0; i < rows; i += batchSize {
		for j := range batch {
			batch[j] = row()
		}
		if err := cat.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := cat.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var allocs, bytes uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch[0] = row()
		if err := cat.ApplyBatch(batch[:1]); err != nil {
			b.Fatal(err)
		}
		if err := cat.DrainAll(); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if err := cat.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/ckpt")
	b.ReportMetric(float64(bytes)/float64(b.N), "B/ckpt")
	b.ReportMetric(float64(allocs)/float64(b.N), "allocs/ckpt")
}
