package serve

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// vwapSpec is Example 2.2 (the per-partition query of most serving tests):
// SUM(price*volume) WHERE 0.75*SUM(volume) < SUM(volume | price<=price).
func vwapSpec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// symEvents generates an insert/delete trace over partitions distinguished by
// the "sym" column.
func symEvents(seed int64, n, partitions int) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	out := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(live))
			out = append(out, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// serialReference applies the trace through one engine executor per partition
// (the semantics the service promises) and returns the per-partition results.
func serialReference(t *testing.T, q *query.Query, events []engine.Event) map[float64]float64 {
	t.Helper()
	execs := map[float64]engine.Executor{}
	for _, e := range events {
		k := e.Tuple["sym"]
		ex, ok := execs[k]
		if !ok {
			var err error
			ex, err = engine.New(q)
			if err != nil {
				t.Fatal(err)
			}
			execs[k] = ex
		}
		ex.Apply(e)
	}
	out := make(map[float64]float64, len(execs))
	for k, ex := range execs {
		out[k] = ex.Result()
	}
	return out
}

// applyEach feeds events one ApplyBatch call per event: every event is its
// own queue item, so shard workers see the finest-grained interleaving of
// queue items and batch boundaries.
func applyEach(t *testing.T, svc *Service, events []engine.Event) {
	t.Helper()
	for i := range events {
		if err := svc.ApplyBatch(events[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardCountInvariance is the central differential test: the served
// output must not depend on the shard count, and must equal the serial
// one-executor-per-partition reference exactly.
func TestShardCountInvariance(t *testing.T) {
	q := vwapSpec()
	events := symEvents(7, 4000, 23)
	want := serialReference(t, q, events)
	var wantTotal float64
	for _, v := range want {
		wantTotal += v
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		svc, err := ForQuery(q, []string{"sym"}, Options{Shards: shards, BatchSize: 32, QueueLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		applyEach(t, svc, events)
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := svc.Result(); got != wantTotal {
			t.Fatalf("shards=%d: Result = %v, want %v", shards, got, wantTotal)
		}
		groups := svc.ResultGrouped()
		if len(groups) != len(want) {
			t.Fatalf("shards=%d: %d groups, want %d", shards, len(groups), len(want))
		}
		for i, g := range groups {
			if len(g.Key) != 1 {
				t.Fatalf("shards=%d: group %d has key %v", shards, i, g.Key)
			}
			if i > 0 && groups[i-1].Key[0] >= g.Key[0] {
				t.Fatalf("shards=%d: groups not sorted at %d", shards, i)
			}
			if wantV, ok := want[g.Key[0]]; !ok || wantV != g.Value {
				t.Fatalf("shards=%d: group %v = %v, want %v", shards, g.Key, g.Value, wantV)
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotsLagAtMostUntilDrain checks the read contract: reads between
// batches may lag but Drain is a barrier after which reads are exact.
func TestSnapshotsLagAtMostUntilDrain(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 1500, 9)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	want := serialReference(t, q, events)
	var wantTotal float64
	for _, v := range want {
		wantTotal += v
	}
	for i := range events {
		if err := svc.ApplyBatch(events[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			// Concurrent, possibly stale read: must not panic or block.
			if v := svc.Result(); math.IsNaN(v) {
				t.Fatal("NaN mid-stream result")
			}
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Result(); got != wantTotal {
		t.Fatalf("after Drain: Result = %v, want %v", got, wantTotal)
	}
}

// TestCloseSemantics: Close drains and publishes final state; later
// ApplyBatch, Drain and Close report ErrClosed; reads keep working.
func TestCloseSemantics(t *testing.T) {
	q := vwapSpec()
	events := symEvents(3, 800, 5)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	applyEach(t, svc, events)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, q, events)
	var wantTotal float64
	for _, v := range want {
		wantTotal += v
	}
	if got := svc.Result(); got != wantTotal {
		t.Fatalf("post-Close Result = %v, want %v (final snapshots must be published)", got, wantTotal)
	}
	if err := svc.ApplyBatch(events[:1]); err != ErrClosed {
		t.Fatalf("ApplyBatch after Close = %v, want ErrClosed", err)
	}
	if err := svc.Drain(); err != ErrClosed {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if err := svc.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestStatsCounters checks the per-shard counters add up.
func TestStatsCounters(t *testing.T) {
	q := vwapSpec()
	const partitions = 13
	events := symEvents(5, 1000, partitions)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	applyEach(t, svc, events)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	var applied, flushed uint64
	var parts int
	for _, st := range svc.Stats() {
		applied += st.Applied
		flushed += st.Flushed
		parts += st.Partitions
		if st.QueueDepth != 0 {
			t.Fatalf("shard %d: queue depth %d after Drain", st.Shard, st.QueueDepth)
		}
	}
	if applied != uint64(len(events)) {
		t.Fatalf("applied = %d, want %d", applied, len(events))
	}
	if flushed == 0 {
		t.Fatal("no batches flushed")
	}
	if parts != partitions {
		t.Fatalf("partitions = %d, want %d", parts, partitions)
	}
	if n := len(svc.Stats()); n != 4 {
		t.Fatalf("%d shards reported, want 4", n)
	}
}

// TestConfigValidation covers the constructor error paths and defaults:
// every negative option is refused by name, by ForQuery and RecoverForQuery
// alike, and zero options select the defaults.
func TestConfigValidation(t *testing.T) {
	dir := t.TempDir()
	exportDir(t, dir, 1, symEvents(3, 50, 3))
	for _, tc := range []struct {
		field string
		opt   Options
	}{
		{"Shards", Options{Shards: -1}},
		{"QueueLen", Options{QueueLen: -1}},
		{"BatchSize", Options{BatchSize: -1}},
	} {
		want := "Options." + tc.field
		if _, err := ForQuery(vwapSpec(), []string{"sym"}, tc.opt); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ForQuery with negative %s = %v, want an error naming %s", tc.field, err, want)
		}
		if _, err := RecoverForQuery(dir, vwapSpec(), []string{"sym"}, tc.opt); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RecoverForQuery with negative %s = %v, want an error naming %s", tc.field, err, want)
		}
	}
	if _, err := ForQuery(vwapSpec(), nil, Options{}); err == nil {
		t.Fatal("ForQuery without partition columns succeeded")
	}
	// A COUNT query must count the constant 1, so planning must fail and
	// ForQuery must surface the error.
	bad := &query.Query{
		Outer: query.Count,
		Agg:   query.Col("price"),
		Preds: []query.Predicate{{
			Left:  query.ValExpr(query.Col("price")),
			Op:    query.Ge,
			Right: query.ValSub(1, &query.Subquery{Kind: query.Sum, Of: query.Col("price")}),
		}},
	}
	if _, err := ForQuery(bad, []string{"sym"}, Options{}); err == nil {
		t.Fatal("ForQuery with a COUNT query over a non-constant term succeeded")
	}
	// Zero options fall back to defaults and the service still works.
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); len(st) != 1 || st[0].BatchSize != 4096 || cap(svc.shards[0].in) != 1024 {
		t.Fatalf("default options: %d shards, batch %d, queue %d; want 1, 4096, 1024",
			len(st), st[0].BatchSize, cap(svc.shards[0].in))
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
