package catalog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
)

// TestRecoverGoldenCatalog recovers a durable catalog directory written by
// the build that still decoded every event into a tuple map (commit
// b6ba13d): a CATALOG manifest, a generation-2 WAL, rotation snapshots of
// four sets and the fork snapshot of a late COUNT joiner. RESULTS holds what
// that build read from every query once it had drained — scalar and
// grouped, as float bits. Recovery through row decode must read the same
// bits: the WAL, manifest and snapshot formats are unchanged, and replaying
// a record through bound rows must land every executor where replaying it
// through maps did.
func TestRecoverGoldenCatalog(t *testing.T) {
	const golden = "testdata/golden-catalog"
	want, err := os.ReadFile(filepath.Join(golden, "RESULTS"))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Recover(Options{Dir: crashCopy(t, filepath.Join(golden, "dir")), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if got := resultBits(t, cat); got != string(want) {
		t.Fatalf("recovered results differ from the recording build's:\n got\n%s\n want\n%s", got, want)
	}
}

// resultBits renders every query's scalar and grouped results as float bits,
// in RESULTS' format.
func resultBits(t *testing.T, cat *Service) string {
	t.Helper()
	var sb strings.Builder
	for _, ex := range cat.List() {
		v, err := cat.Result(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "result %d %016x\n", ex.ID, math.Float64bits(v))
		g, err := cat.ResultGrouped(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, gr := range g {
			ks := make([]string, len(gr.Key))
			for i, k := range gr.Key {
				ks[i] = fmt.Sprintf("%016x", math.Float64bits(k))
			}
			fmt.Fprintf(&sb, "group %d %s %016x\n", ex.ID, strings.Join(ks, ","), math.Float64bits(gr.Value))
		}
	}
	return sb.String()
}

// TestRegisterNewColumnDuringIngest registers a query reading a column no
// earlier query reads (qty) while batches carrying it stream in through the
// record path, whose decode runs outside the catalog's locks against the
// schema version it loaded. A batch decoded before the registration extended
// the schema lacks qty; the catalog must decode it again under its lock, or
// the new set reads qty as 0. The new set must match a dedicated service fed
// exactly the batches applied from its founding on.
func TestRegisterNewColumnDuringIngest(t *testing.T) {
	const sqlQty = `SELECT SUM(b.price * b.qty) FROM bids b
WHERE 0.5 * (SELECT SUM(b1.qty) FROM bids b1)
      < (SELECT SUM(b2.qty) FROM bids b2 WHERE b2.price <= b.price)`
	for round := 0; round < 20; round++ {
		cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cat.Register(sqlVWAP); err != nil {
			t.Fatal(err)
		}
		events := catEvents(int64(100+round), 1600, 5)
		for _, e := range events {
			e.Tuple["qty"] = e.Tuple["volume"] + 1
		}
		batches := chunk(events, 16)
		recs := make([][]byte, len(batches))
		for i, b := range batches {
			recs[i] = encodeBatchRecord(nil, b)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		errc := make(chan error, 1)
		go func() {
			defer wg.Done()
			var b Batch
			for _, rec := range recs {
				if err := cat.DecodeRecord(&b, rec); err != nil {
					errc <- err
					return
				}
				if err := cat.ApplyRecord(&b); err != nil {
					errc <- err
					return
				}
			}
		}()
		id, ex, err := cat.Register(sqlQty)
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if err := cat.DrainAll(); err != nil {
			t.Fatal(err)
		}
		q := mustParse(t, sqlQty)
		ded, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[ex.StateSince:] {
			if err := ded.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := ded.Drain(); err != nil {
			t.Fatal(err)
		}
		got, _ := cat.Result(id)
		gotG, _ := cat.ResultGrouped(id)
		if want := ded.Result(); math.Float64bits(got) != math.Float64bits(want) || !groupsEqual(gotG, ded.ResultGrouped()) {
			t.Fatalf("round %d: set founded at batch %d reads %v, dedicated service over the suffix %v", round, ex.StateSince, got, want)
		}
		ded.Close()
		cat.Close()
	}
}

// TestSchemaChurnBounded runs register/unregister churn in which every
// registration reads a column no earlier one read, on a durable catalog. The
// schema must return to the live sets' columns after each teardown, or a
// client could widen every ingested row — and server memory — without bound.
// The first teardown moves the surviving query's columns to new slots, so it
// also checks that the survivor's admission was bound again: an event with a
// non-positive weight is still refused, and what it serves matches a
// dedicated service fed the batches the catalog accepted.
func TestSchemaChurnBounded(t *testing.T) {
	const sqlW = `SELECT SUM(b.price * b.w) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.w) FROM bids b1)
      < (SELECT SUM(b2.w) FROM bids b2 WHERE b2.price <= b.price)`
	fresh := func(i int) string {
		return fmt.Sprintf(`SELECT SUM(b.price * b.c%d) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.c%d) FROM bids b1)
      < (SELECT SUM(b2.c%d) FROM bids b2 WHERE b2.price <= b.price)`, i, i, i)
	}
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	first, _, err := cat.Register(fresh(-1))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := cat.Register(sqlW)
	if err != nil {
		t.Fatal(err)
	}
	live := query.NewSchema("sym").Extend(mustParse(t, sqlW).Columns()...).Len()
	if err := cat.Unregister(first); err != nil {
		t.Fatal(err)
	}
	ded, err := serve.ForQuery(mustParse(t, sqlW), []string{"sym"}, serve.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ded.Close()
	batch := func(i int) []engine.Event {
		out := make([]engine.Event, 16)
		for j := range out {
			out[j] = engine.Insert(query.Tuple{"sym": float64(j % 4), "price": float64((i+j)%20 + 1),
				"w": float64(j%3 + 1), fmt.Sprintf("c%d", i): float64(j%5 + 1)})
		}
		return out
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		cid, _, err := cat.Register(fresh(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := cat.schema.Load().Len(); got <= live {
			t.Fatalf("round %d: schema of %d columns does not hold the fresh column", i, got)
		}
		b := batch(i)
		if err := cat.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := ded.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		bad := append([]engine.Event(nil), b...)
		bad[3] = engine.Insert(query.Tuple{"sym": 1, "price": 5, "w": -1, fmt.Sprintf("c%d", i): 7})
		if err := cat.ApplyBatch(bad); !errors.Is(err, engine.ErrBadEvent) {
			t.Fatalf("round %d: batch with a negative w weight: err = %v, want ErrBadEvent", i, err)
		}
		if err := cat.Unregister(cid); err != nil {
			t.Fatal(err)
		}
		if got := cat.schema.Load().Len(); got != live {
			t.Fatalf("round %d: schema holds %d columns after teardown, the live sets read %d", i, got, live)
		}
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if err := ded.Drain(); err != nil {
		t.Fatal(err)
	}
	got, _ := cat.Result(id)
	gotG, _ := cat.ResultGrouped(id)
	if want := ded.Result(); math.Float64bits(got) != math.Float64bits(want) || !groupsEqual(gotG, ded.ResultGrouped()) {
		t.Fatalf("after %d churn rounds the survivor reads %v, a dedicated service %v", rounds, got, want)
	}
}

// vwapVariant is sqlVWAP with an inner volume filter: each constant k is its
// own state set (the filter shapes maintained state), as in the stack
// benchmark's multi-distinct workload.
func vwapVariant(k int) string {
	return fmt.Sprintf(`SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1 WHERE b1.volume > %d)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`, k)
}

// multiDistinctSQL is the stack benchmark's multi-distinct registration
// set: the 16 distinct state sets of vwapVariant, then 8 threshold, COUNT
// and AVG variants of the first, which join its set as probe lanes.
func multiDistinctSQL() []string {
	first := func(agg string, scale float64) string {
		return fmt.Sprintf(`SELECT %s FROM bids b
WHERE %v * (SELECT SUM(b1.volume) FROM bids b1 WHERE b1.volume > 0)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`, agg, scale)
	}
	const sum, count, avg = "SUM(b.price * b.volume)", "COUNT(*)", "AVG(b.price * b.volume)"
	var sqls []string
	for k := 0; k < 16; k++ {
		sqls = append(sqls, vwapVariant(k))
	}
	return append(sqls, first(sum, 0.5), first(sum, 0.9), first(sum, 0.25), first(count, 0.75),
		first(avg, 0.75), first(count, 0.9), first(avg, 0.5), first(sum, 0.6))
}

// BenchmarkIngestRecord is the record path per event: 256-event VWAP
// records through decode, admission, the WAL append (in a temp dir) and the
// fan-out of their rows to the state sets, with a drain per record so the
// shard workers' apply is counted too. sets=1 and sets=16 fan one record
// (8 partitions x 16 price levels) out to 1 and to 16 distinct sets on one
// shard; multi-distinct is the stack benchmark's shape of that name — 16
// distinct sets on 2 shards over 512 partitions, records drawn from a ring
// of 8 at random — where a shard's partition lookup no longer fits a small
// map. Re-applying a record grows no index. ns/event and B/event are
// reported per event of the record.
func BenchmarkIngestRecord(b *testing.B) {
	const n = 256
	record := func(rng *rand.Rand, parts int) []byte {
		events := make([]engine.Event, n)
		for i := range events {
			sym := i % parts
			if rng != nil {
				sym = rng.Intn(parts)
			}
			events[i] = engine.Insert(query.Tuple{"sym": float64(sym), "price": float64(i%16 + 1), "volume": float64(i%3 + 1)})
		}
		return encodeBatchRecord(nil, events)
	}
	fixed := [][]byte{record(nil, 8)}
	rng := rand.New(rand.NewSource(1))
	ring := make([][]byte, 8)
	for i := range ring {
		ring[i] = record(rng, 512)
	}
	for _, bc := range []struct {
		name         string
		sets, shards int
		recs         [][]byte
	}{
		{"sets=1", 1, 1, fixed},
		{"sets=16", 16, 1, fixed},
		{"multi-distinct", 16, 2, ring},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: bc.shards, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer cat.Close()
			for k := 0; k < bc.sets; k++ {
				if _, _, err := cat.Register(vwapVariant(k)); err != nil {
					b.Fatal(err)
				}
			}
			var batch Batch
			apply := func(rec []byte) {
				if err := cat.DecodeRecord(&batch, rec); err != nil {
					b.Fatal(err)
				}
				if err := cat.ApplyRecord(&batch); err != nil {
					b.Fatal(err)
				}
				if err := cat.DrainAll(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 4*len(bc.recs); i++ {
				apply(bc.recs[i%len(bc.recs)])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(bc.recs[i%len(bc.recs)])
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/event")
		})
	}
}

// BenchmarkCatalogRegister is the registration path on a durable catalog:
// the 16 distinct state sets of vwapVariant plus 8 threshold, COUNT and AVG
// variants of the first (which join its set as probe lanes) are registered,
// then every one is unregistered. Each call parses and plans, derives the
// catalog's tables and commits the manifest; ns/call is reported per
// Register or Unregister.
func BenchmarkCatalogRegister(b *testing.B) {
	sqls := multiDistinctSQL()
	ids := make([]QueryID, len(sqls))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 1, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var ex Explain
		for j, sql := range sqls {
			if ids[j], ex, err = cat.Register(sql); err != nil {
				b.Fatal(err)
			}
		}
		if ex.IngestSets != 16 {
			b.Fatalf("%d registrations fan out to %d sets, want 16", len(sqls), ex.IngestSets)
		}
		for _, id := range ids {
			if err := cat.Unregister(id); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := cat.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*len(sqls)), "ns/call")
}
