package serve

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// chunkEvents cuts events into consecutive chunks of 1..max events.
func chunkEvents(events []engine.Event, rng *rand.Rand, max int) [][]engine.Event {
	var out [][]engine.Event
	for len(events) > 0 {
		n := 1 + rng.Intn(max)
		if n > len(events) {
			n = len(events)
		}
		out = append(out, events[:n:n])
		events = events[n:]
	}
	return out
}

// TestApplyBatchMatchesApply is the serving-layer batching contract: feeding
// a trace through ApplyBatch in arbitrary chunks leaves exactly the state of
// one executor per partition fed event by event, for any shard count. Chunks are
// staged through a reused scratch slice that is overwritten between calls,
// pinning the documented copy semantics (the service must not retain the
// caller's slice).
func TestApplyBatchMatchesApply(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 3000, 17)
	want := serialReference(t, q, events)
	for _, shards := range []int{1, 3, 4} {
		for _, max := range []int{1, 7, 64, 300} {
			svc, err := ForQuery(q, []string{"sym"}, Options{Shards: shards, BatchSize: 32, QueueLen: 256})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards*1000 + max)))
			var scratch []engine.Event
			for _, chunk := range chunkEvents(events, rng, max) {
				scratch = append(scratch[:0], chunk...)
				if err := svc.ApplyBatch(scratch); err != nil {
					t.Fatal(err)
				}
				// Overwrite the scratch storage; the service must have copied.
				for i := range scratch {
					scratch[i] = engine.Event{}
				}
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			requireSameGroups(t, "batched", groupedMap(svc), want)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestApplyBatchDurableRecovery drives a service exclusively through
// ApplyBatch and checks the state it built survives a checkpoint export and
// a restore onto another shard count.
func TestApplyBatchDurableRecovery(t *testing.T) {
	q := vwapSpec()
	events := symEvents(29, 1500, 9)
	dir := t.TempDir()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, chunk := range chunkEvents(events, rng, 48) {
		if err := svc.ApplyBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverForQuery(dir, q, []string{"sym"}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroups(t, "recovered", groupedMap(rec), serialReference(t, q, events))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchEdgeCases covers the trivial paths: an empty batch is a no-op
// and a batch after Close is rejected with ErrClosed.
func TestApplyBatchEdgeCases(t *testing.T) {
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	ev := engine.Insert(map[string]float64{"sym": 1, "price": 2, "volume": 3})
	if err := svc.ApplyBatch([]engine.Event{ev}); err != ErrClosed {
		t.Fatalf("ApplyBatch after Close = %v, want ErrClosed", err)
	}
}

// TestBatchSizeConfig pins the BatchSize contract: negative values are
// rejected, zero selects the default of 4 096, and the effective value is
// surfaced per shard in ShardStats.
func TestBatchSizeConfig(t *testing.T) {
	if _, err := ForQuery(vwapSpec(), []string{"sym"}, Options{BatchSize: -1}); err == nil {
		t.Fatal("negative BatchSize accepted")
	}
	for _, tc := range []struct{ in, want int }{{0, 4096}, {16, 16}} {
		svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 2, BatchSize: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range svc.Stats() {
			if st.BatchSize != tc.want {
				t.Fatalf("BatchSize %d: shard %d surfaces %d, want %d", tc.in, st.Shard, st.BatchSize, tc.want)
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyRowsSourceSchema checks ApplyRows' contract on its source schema:
// a schema holding the service's columns in another order, with extra
// columns between them, is gathered onto the service's own layout and
// serves what ApplyBatch of the same events serves; a schema lacking one of
// the service's columns is refused before anything is queued.
func TestApplyRowsSourceSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]engine.Event, 200)
	for i := range events {
		events[i] = engine.Insert(query.Tuple{"sym": float64(rng.Intn(4)),
			"price": float64(1 + rng.Intn(50)), "volume": float64(1 + rng.Intn(5))})
	}
	src := query.NewSchema("extra", "volume", "other", "price", "sym")
	var rows engine.Rows
	rows.Reset(src.Len())
	for _, e := range events {
		rows.Project(e.X, src.Cols(), e.Tuple)
	}
	d := NewPartitions([]string{"sym"})
	byRows, err := ForPartitions(d, vwapSpec(), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer byRows.Close()
	byMaps, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer byMaps.Close()
	var rt Routing
	if err := d.Route(src, &rows, &rt); err != nil {
		t.Fatal(err)
	}
	if err := byRows.ApplyRows(src, &rows, &rt); err != nil {
		t.Fatal(err)
	}
	if err := byMaps.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := byRows.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := byMaps.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := byRows.Result(), byMaps.Result(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ApplyRows result %v, ApplyBatch result %v", got, want)
	}

	narrow := query.NewSchema("sym", "price")
	rows.Reset(narrow.Len())
	rows.Project(1, narrow.Cols(), query.Tuple{"sym": 1, "price": 2})
	if err := d.Route(narrow, &rows, &rt); err != nil {
		t.Fatal(err)
	}
	err = byRows.ApplyRows(narrow, &rows, &rt)
	if err == nil || !strings.Contains(err.Error(), `"volume"`) {
		t.Fatalf("ApplyRows under a schema lacking volume: err = %v, want a refusal naming the column", err)
	}
	if err := byRows.Drain(); err != nil {
		t.Fatal(err)
	}
	applied := uint64(0)
	for _, st := range byRows.Stats() {
		applied += st.Applied
	}
	if applied != uint64(len(events)) {
		t.Fatalf("refused batch applied: %d events applied, want %d", applied, len(events))
	}
}

// TestCommitRefreshesEveryTouchedPartition holds a one-shard worker, queues
// two-event boxes over three partitions — four fill the first commit's drain
// bound, two more and the release's drain barrier make a second — and checks
// the published results against a service fed the same events at once. A
// partition touched only by an early box of a commit is refreshed at commit;
// one touched by the box that fills the batch is refreshed right after its
// run there; a partition left unrefreshed either way serves a stale value.
func TestCommitRefreshesEveryTouchedPartition(t *testing.T) {
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1, QueueLen: 16, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ref, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	release := holdShard(svc, 0)
	var all []engine.Event
	for i, syms := range [][2]float64{{0, 1}, {1, 2}, {0, 1}, {1, 1}, {2, 0}, {2, 2}} {
		box := []engine.Event{
			engine.Insert(query.Tuple{"sym": syms[0], "price": float64(i + 1), "volume": 2}),
			engine.Insert(query.Tuple{"sym": syms[1], "price": float64(7 - i), "volume": 1}),
		}
		all = append(all, box...)
		if err := svc.ApplyBatch(box); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := ref.ApplyBatch(all); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	got, want := svc.ResultGrouped(), ref.ResultGrouped()
	if len(got) != len(want) {
		t.Fatalf("%d partitions served, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Errorf("partition %v serves %v, want %v", want[i].Key, got[i].Value, want[i].Value)
		}
	}
}

// TestGroupCommitAbsorbsBacklog holds both shards of a service at the
// default drain bound with a control request, queues eleven ApplyBatch
// calls' boxes and a drain barrier behind each hold, and releases them:
// every shard must absorb its whole backlog into exactly one commit
// (Flushed advances by one), and every result must be bit-equal to a
// BatchSize 1 service, which commits each event alone, fed the same
// batches.
func TestGroupCommitAbsorbsBacklog(t *testing.T) {
	const shards, boxes, size = 2, 12, 40
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ref, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	events := symEvents(46, boxes*size, 9)
	feed := func(svc *Service, batch []engine.Event) {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// The first box goes in unheld, so both shards own partitions before
	// the backlog arrives.
	feed(svc, events[:size])
	feed(ref, events[:size])
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	releases := make([]func(), shards)
	for i := range releases {
		releases[i] = holdShard(svc, i)
	}
	before := svc.Stats()
	for b := 1; b < boxes; b++ {
		feed(svc, events[b*size:(b+1)*size])
		feed(ref, events[b*size:(b+1)*size])
	}
	for i, st := range svc.Stats() {
		if st.QueueDepth != boxes-1 {
			t.Fatalf("shard %d queued %d boxes under the hold, want %d", i, st.QueueDepth, boxes-1)
		}
	}
	for _, release := range releases {
		release()
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, st := range svc.Stats() {
		if got := st.Flushed - before[i].Flushed; got != 1 {
			t.Errorf("shard %d: backlog of %d events took %d commits, want 1", i, st.Applied-before[i].Applied, got)
		}
	}
	if got, want := svc.Result(), ref.Result(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Result %v, BatchSize 1 service %v", got, want)
	}
	if got, want := svc.ResultGrouped(), ref.ResultGrouped(); !groupsIdentical(got, want) {
		t.Errorf("ResultGrouped differs from the BatchSize 1 service:\n got %v\nwant %v", got, want)
	}
}

// holdShard parks shard i's worker in a control request until release, so
// everything queued meanwhile meets the worker as one backlog. release
// queues a drain barrier behind the backlog, lets the worker go and waits
// for the barrier, so the backlog and the barrier are one drain.
func holdShard(svc *Service, i int) (release func()) {
	gate, held := make(chan struct{}), make(chan struct{})
	go svc.control(i, func(*workerState) error {
		close(held)
		<-gate
		return nil
	})
	<-held
	return func() {
		done := make(chan struct{})
		svc.shards[i].in <- item{sync: done}
		close(gate)
		<-done
	}
}
