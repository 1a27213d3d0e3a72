package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/fuzzwatch"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// sqlVWAP60 is a third threshold constant over sqlVWAP's predicate
// structure, so the fuzz mixes can build three-lane families. The remaining
// constants are sqlVWAP's other probe-plan variants: a COUNT(*) and an AVG
// over the same predicate (aggregate-variant lanes on one state set) and a
// copy carrying one extra bare partition-column conjunct (a residual
// probe-time gate — the fuzzer partitions by broker).
const (
	sqlVWAP60 = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.6 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	sqlCountVWAP = `SELECT COUNT(*) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	sqlAvgVWAP = `SELECT AVG(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	sqlResVWAP = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE b.broker > 2
AND 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
)

// fuzzSets are the registration mixes the differential fuzzer can pick from.
// Each mix exercises a different sharing topology: exact duplicates (one
// shared set), constant variants (one set, one fan lane per constant),
// aggregate variants (SUM/COUNT/AVG probe plans on one state set), filtered
// variants (residual probe gates), strategy mixes, and — in the 16-query
// entry — the full acceptance-criterion load.
var fuzzSets = [][]string{
	{sqlVWAP},
	{sqlVWAP, sqlVWAP2},                   // one shared set (exact)
	{sqlVWAP, sqlVWAP90},                  // constant variants: one family set, two lanes
	{sqlVWAP, sqlEq, sqlNested},           // three strategies
	{sqlEq, sqlEq, sqlVWAP, sqlNested},    // shared PAI set
	{sqlNested, sqlVWAP2, sqlVWAP, sqlEq}, // general + shared rpai
	{
		sqlVWAP, sqlVWAP2, sqlVWAP90, sqlEq, sqlNested,
		sqlVWAP, sqlEq, sqlVWAP90, sqlNested, sqlVWAP2,
		sqlVWAP, sqlVWAP90, sqlEq, sqlNested, sqlVWAP, sqlEq,
	},
	{sqlVWAP, sqlVWAP90, sqlVWAP60},                            // three-lane family
	{sqlVWAP, sqlVWAP2, sqlVWAP90, sqlVWAP60},                  // exact duplicate + family in one set
	{sqlVWAP, sqlCountVWAP, sqlAvgVWAP},                        // aggregate variants: one set, three probe kinds
	{sqlVWAP, sqlResVWAP},                                      // filtered variant: residual probe gate
	{sqlAvgVWAP, sqlVWAP90, sqlCountVWAP, sqlResVWAP, sqlVWAP}, // AVG founds the set; every lane kind joins
}

// fuzzLateSets are mid-ingest registration waves. A late variant joins the
// live family set retroactively — on durable catalogs via a checkpoint fork
// of the set's state — and inherits the family's entire history, so its
// independent reference must replay that history before the comparison.
var fuzzLateSets = [][]string{
	nil,
	{sqlVWAP90},                // late constant variant joins the live family
	{sqlVWAP, sqlVWAP60},       // late pair: exact joiner + new lane in one wave
	{sqlEq, sqlVWAP90},         // strategy stranger + family joiner
	{sqlAvgVWAP, sqlCountVWAP}, // late aggregate variants fork the family state
	{sqlResVWAP},               // late filtered variant: residual gate on inherited state
	{sqlVolumeVWAP},            // late new state sharing the family's count side
}

// fuzzLateAt and fuzzChurnAt are the event counts at which the late
// registration wave and the unregister churn trigger (batch-aligned by an
// explicit flush, as the live catalog requires).
const (
	fuzzLateAt  = 6
	fuzzChurnAt = 12
)

// fuzzRef is one registered query's independent ground truth: a dedicated
// single-query service (or pair of them, for AVG) fed the same batches as
// the catalog.
type fuzzRef interface {
	ApplyBatch([]engine.Event) error
	Drain() error
	Result() float64
	ResultGrouped() []engine.GroupResult
	Close() error
}

// avgRef serves a top-level AVG query — which a partitioned service cannot
// run directly, averages not being sum-decomposable — as a SUM service and a
// COUNT service over the same predicate, finished by their quotient at every
// read. This is exactly the raw pair the catalog's AVG probe lane carries,
// so the two must stay bit-identical.
type avgRef struct{ sum, cnt *serve.Service }

func (r *avgRef) ApplyBatch(b []engine.Event) error {
	if err := r.sum.ApplyBatch(b); err != nil {
		return err
	}
	return r.cnt.ApplyBatch(b)
}

func (r *avgRef) Drain() error {
	if err := r.sum.Drain(); err != nil {
		return err
	}
	return r.cnt.Drain()
}

func (r *avgRef) Result() float64 { return avgQuotient(r.sum.Result(), r.cnt.Result()) }

func (r *avgRef) ResultGrouped() []engine.GroupResult {
	sums, cnts := r.sum.ResultGrouped(), r.cnt.ResultGrouped()
	if len(sums) != len(cnts) {
		return nil // impossible for identical feeds; nil forces the comparison to fail loudly
	}
	out := make([]engine.GroupResult, len(sums))
	for i := range sums {
		out[i] = engine.GroupResult{Key: sums[i].Key, Value: avgQuotient(sums[i].Value, cnts[i].Value)}
	}
	return out
}

func (r *avgRef) Close() error {
	err := r.sum.Close()
	if cerr := r.cnt.Close(); err == nil {
		err = cerr
	}
	return err
}

// avgQuotient finishes an AVG's raw (sum, count) pair the way the engine
// does: 0 over an empty qualifying set.
func avgQuotient(sum, cnt float64) float64 {
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}

// newFuzzRef builds a query's independent reference service(s).
func newFuzzRef(t *testing.T, sql string, opt serve.Options) fuzzRef {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Outer != query.Avg {
		svc, err := serve.ForQuery(q, []string{"broker"}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	q.Outer = query.Sum
	sum, err := serve.ForQuery(q, []string{"broker"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	qc.Outer = query.Count
	qc.Agg = query.Const(1) // COUNT(*)'s term: counts the qualifying tuples
	cnt, err := serve.ForQuery(qc, []string{"broker"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &avgRef{sum: sum, cnt: cnt}
}

// FuzzCatalogDifferential is the catalog-level differential fuzzer: a
// catalog of N registered queries fed one shared event stream must be
// bit-identical — scalar and grouped, after every batch — to N independent
// single-query services fed the same batches. The input reuses the
// FuzzEngineDifferential trace layout (shape byte, 8-byte seed, 3-byte
// (op,b1,b2) event records); the shape byte selects the registration mix,
// bytes 1-2 pick shard count and batch boundaries, byte 3 selects a
// mid-ingest registration wave, and byte 4 packs unregister churn (low bits
// arm it, high bits pick the victim) plus a durable bit that ends the run
// with a crash-copy recovery compared against the same references. A record
// whose op is 7 mod 16 instead subscribes to query b1 (mod the live count),
// one whose op is 11 mod 16 unregisters it, and one whose op is 13 mod 16
// registers again the SQL of unregistered query b1 (mod the count) —
// restarting a durable catalog first, by Close and Recover; every live
// subscription's View must equal its query's ResultGrouped, bit for bit,
// after every batch.
//
// Placement is pinned by a twin: an in-memory catalog that receives the same
// registrations and unregistrations but no events, and never checkpoints or
// recovers. After every registration both must place the new query alike —
// its set, co-tenants, state identity and probe plan — so where a query
// lands is a function of the live registrations, not of restarts.
//
// Late waves pin the retroactive-join contract: a mid-stream registration
// joins its family's live state set (forking its checkpoint when durable)
// and inherits the set's history, so its reference replays every batch from
// the set's founding epoch (Explain.StateSince) before comparing. One corpus
// therefore walks sharing topologies — exact, constant-variant,
// aggregate-variant, filtered-variant — shard counts, insert/delete traces,
// register/unregister churn, checkpoint forks, and crash/recovery at once.
//
// Run with `go test -fuzz FuzzCatalogDifferential ./internal/catalog`; the
// committed corpus under testdata/fuzz executes under plain `go test`.
func FuzzCatalogDifferential(f *testing.F) {
	for _, seed := range fuzzSeedInputs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer fuzzwatch.Start(fuzzwatch.Deadline)()
		if len(data) < 9 {
			return
		}
		sqls := fuzzSets[int(data[0])%len(fuzzSets)]
		shards := int(data[1])%3 + 1
		batchSize := int(data[2])%7 + 1
		late := fuzzLateSets[int(data[3])%len(fuzzLateSets)]
		churn := data[4]&3 != 0
		durable := data[4]&4 != 0
		victimPick := int(data[4] >> 3)

		opt := Options{PartitionBy: []string{"broker"}, Shards: shards, BatchSize: 8}
		if durable {
			opt.Dir = filepath.Join(t.TempDir(), "cat")
		}
		cat, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { cat.Close() }() // a restart replaces cat
		twin, err := New(Options{PartitionBy: []string{"broker"}, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		refOpt := serve.Options{Shards: shards, BatchSize: 8}
		var ids []QueryID
		var sqlOf, gone []string // the live queries' SQL; the unregistered ones'
		var indep []fuzzRef
		var subs []*liveSub
		defer func() {
			for _, ls := range subs {
				ls.sub.Close()
			}
		}()
		var flushed [][]engine.Event
		register := func(sql string) {
			p := registerPlacement(t, cat, sql)
			placed := func(p placement) string { return fmt.Sprint(p.ID, p.SetID, p.SharedWith, p.StateKey, p.Probe) }
			if tw := registerPlacement(t, twin, sql); placed(tw) != placed(p) {
				t.Fatalf("register %q: placed at %v, its twin at %v", sql, p, tw)
			}
			ref := newFuzzRef(t, sql, refOpt)
			// A joiner inherits its set's state retroactively: the set
			// reflects every batch applied since its founding epoch, so the
			// fresh reference replays that history before the first compare.
			if n := int(p.StateSince); n < len(flushed) {
				for _, b := range flushed[n:] {
					if err := ref.ApplyBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			ids = append(ids, p.ID)
			sqlOf = append(sqlOf, sql)
			indep = append(indep, ref)
		}
		for _, sql := range sqls {
			register(sql)
		}
		defer func() {
			for _, svc := range indep {
				svc.Close()
			}
		}()

		var live []query.Tuple
		var batch []engine.Event
		events := 0
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if err := cat.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, svc := range indep {
				if err := svc.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			flushed = append(flushed, append([]engine.Event(nil), batch...))
			batch = batch[:0]
			if err := cat.DrainAll(); err != nil {
				t.Fatal(err)
			}
			for i, svc := range indep {
				if err := svc.Drain(); err != nil {
					t.Fatal(err)
				}
				got, err := cat.Result(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if want := svc.Result(); got != want {
					t.Fatalf("query %d after %d events: catalog %v, independent %v", i, events, got, want)
				}
				gotG, err := cat.ResultGrouped(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if !groupsEqual(gotG, svc.ResultGrouped()) {
					t.Fatalf("query %d after %d events: grouped results diverged", i, events)
				}
			}
			if err := checkReaders(cat, nil, subs); err != nil {
				t.Fatalf("after %d events: %v", events, err)
			}
		}
		unregister := func(v int) {
			if err := cat.Unregister(ids[v]); err != nil {
				t.Fatal(err)
			}
			if err := twin.Unregister(ids[v]); err != nil {
				t.Fatal(err)
			}
			indep[v].Close()
			live := subs[:0]
			for _, ls := range subs {
				if ls.id == ids[v] {
					ls.sub.Close()
				} else {
					live = append(live, ls)
				}
			}
			subs = live
			gone = append(gone, sqlOf[v])
			ids = append(ids[:v], ids[v+1:]...)
			sqlOf = append(sqlOf[:v], sqlOf[v+1:]...)
			indep = append(indep[:v], indep[v+1:]...)
		}
		// restart closes a durable catalog and recovers it from its
		// directory; its subscriptions end with it.
		restart := func() {
			for _, ls := range subs {
				ls.sub.Close()
			}
			subs = subs[:0]
			if err := cat.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(Options{Dir: opt.Dir, Shards: shards, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			cat = rec
		}
		for i := 9; i+2 < len(data) && events < 120; i += 3 {
			op, b1, b2 := data[i], data[i+1], data[i+2]
			switch op % 16 {
			case 7:
				subs = append(subs, subscribeView(t, cat, ids[int(b1)%len(ids)]))
				continue
			case 11:
				if len(ids) > 1 {
					unregister(int(b1) % len(ids))
				}
				continue
			case 13:
				if len(gone) > 0 {
					flush()
					if durable {
						restart()
					}
					register(gone[int(b1)%len(gone)])
				}
				continue
			}
			var e engine.Event
			if op%4 == 0 && len(live) > 0 {
				j := (int(b1)<<8 | int(b2)) % len(live)
				e = engine.Delete(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				tup := query.Tuple{
					"price":  float64(b1%40 + 1),
					"volume": float64(b2%30 + 1),
					"a":      float64(b1%10 + 1),
					"b":      float64(b2%8 + 1),
					"broker": float64((b1^b2)%5 + 1),
				}
				live = append(live, tup)
				e = engine.Insert(tup)
			}
			batch = append(batch, e)
			events++
			if len(batch) >= batchSize {
				flush()
			}
			if late != nil && events >= fuzzLateAt {
				// Mid-ingest wave: flush the partial batch so the catalog's
				// batch count matches the flushed history, then register. On a
				// durable catalog a family joiner forks the set's checkpoint;
				// register() replays the inherited history into its reference.
				flush()
				for _, sql := range late {
					register(sql)
				}
				late = nil
				if durable {
					// Rotate mid-stream so the recovery below crosses a
					// checkpoint holding family entries, probe lanes, and
					// freshly forked snapshots.
					if err := cat.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if churn && events >= fuzzChurnAt && len(ids) > 1 {
				// Unregister one member mid-ingest; survivors (co-tenants of
				// its set included) must keep serving bit-identically.
				flush()
				unregister(victimPick % len(ids))
				churn = false
			}
		}
		flush()

		if durable {
			// Crash-copy the directory and recover: every surviving query must
			// read back bit-identically to its independent reference.
			dir := crashCopy(t, opt.Dir)
			rec, err := Recover(Options{Dir: dir, Shards: shards, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if err := rec.DrainAll(); err != nil {
				t.Fatal(err)
			}
			for i, svc := range indep {
				// A late joiner's reference replays its history at
				// registration, and a trailing empty flush drains nothing.
				if err := svc.Drain(); err != nil {
					t.Fatal(err)
				}
				got, err := rec.Result(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if want := svc.Result(); got != want {
					t.Fatalf("query %d recovered %v, independent %v", i, got, want)
				}
				gotG, err := rec.ResultGrouped(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if !groupsEqual(gotG, svc.ResultGrouped()) {
					t.Fatalf("query %d: grouped results diverged after recovery", i)
				}
			}
		}
	})
}

// fuzzSeedInputs is the committed seed corpus: one entry per registration
// mix over a short mixed insert/delete trace, plus lifecycle entries that
// arm late joiners (constant, aggregate, and filtered variants), unregister
// churn, checkpoint forks, and the durable crash/recovery path, so plain
// `go test` exercises every sharing topology and lifecycle.
func fuzzSeedInputs() [][]byte {
	trace := []byte{
		1, 5, 9, 1, 5, 3, 1, 17, 28, 1, 5, 9, 0, 0, 1, 1, 200, 100,
		1, 39, 29, 0, 0, 0, 1, 5, 9, 1, 12, 12, 0, 0, 2, 1, 1, 1,
	}
	long := append(append([]byte{}, trace...), trace...)
	var out [][]byte
	for shape := byte(0); shape < byte(len(fuzzSets)); shape++ {
		out = append(out, append([]byte{shape, shape + 1, 3, 0, 0, 0, 0, 0, 77}, trace...))
	}
	// Lifecycle seeds: header bytes are {shape, shards, batch, late,
	// churn|durable|victim<<3}; the longer trace reaches the churn threshold.
	for _, hdr := range [][]byte{
		{2, 2, 3, 1, 0},             // live family + late constant variant
		{2, 2, 4, 2, 1 | 1<<3},      // family forming mid-stream, then churn
		{7, 1, 3, 0, 1},             // three-lane family, founder unregisters
		{7, 2, 5, 3, 4},             // three-lane family, crash + recover
		{8, 2, 3, 1, 1 | 4 | 2<<3},  // exact+family set: churn and recovery
		{6, 3, 5, 2, 1 | 4 | 11<<3}, // 16-query mix with every lifecycle arm
		{9, 2, 3, 4, 0},             // aggregate variants + late AVG/COUNT joiners
		{9, 1, 4, 4, 4},             // same wave on a durable catalog: fork + recover
		{10, 2, 3, 5, 0},            // filtered variant + late residual joiner
		{10, 2, 5, 5, 1 | 4},        // late residual joiner with churn and recovery
		{11, 3, 3, 4, 1 | 4 | 2<<3}, // AVG-founded mix: late wave, churn, recovery
	} {
		out = append(out, append(append(append([]byte{}, hdr...), 0, 0, 0, 77), long...))
	}
	// Subscriber and re-register seeds: subscribe (op 7), unregister (op 11)
	// and re-register (op 13) records spliced into the trace. The first is the stranded subscriber: the
	// founder's subscription must outlive its threshold variant.
	sub := func(at int, recs ...byte) []byte {
		return append(append(append([]byte{}, long[:at]...), recs...), long[at:]...)
	}
	// The variant leaves, then registers again in the late wave (after the
	// sixth event) and is subscribed to.
	again := append(sub(6, 7, 0, 0, 11, 1, 0)[:30:30], append([]byte{7, 1, 0}, long[24:]...)...)
	for _, seed := range []struct {
		hdr   []byte
		trace []byte
	}{
		{[]byte{2, 2, 3, 0, 0}, sub(9, 7, 0, 0, 11, 1, 0)},                            // variant leaves the founder's subscriber
		{[]byte{2, 2, 3, 0, 0}, sub(9, 7, 1, 0, 7, 0, 0, 11, 0, 0)},                   // founder leaves the variant's subscriber
		{[]byte{2, 1, 2, 1, 0}, again},                                                // variant leaves, registers late again
		{[]byte{11, 2, 3, 4, 4}, sub(3, 7, 0, 0, 7, 1, 0, 7, 3, 0, 11, 4, 0)},         // every lane kind subscribed
		{[]byte{6, 3, 5, 2, 1 | 2<<3}, sub(12, 7, 4, 0, 7, 9, 0, 11, 4, 0, 11, 0, 0)}, // 16-query mix
		// COUNT(*) leaves the set it shares with SUM and AVG after a late
		// SUM(b.volume) founds a newer set with the same count side; after a
		// restart it registers again, and the twin must place it alike.
		{[]byte{9, 1, 3, 6, 4}, sub(18, 11, 1, 0, 13, 0, 0)},
	} {
		out = append(out, append(append(append([]byte{}, seed.hdr...), 0, 0, 0, 77), seed.trace...))
	}
	return out
}

// TestWriteFuzzCorpus regenerates the committed seed corpus; run with
// WRITE_FUZZ_CORPUS=1 after changing the seed set; skipped otherwise.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCatalogDifferential")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedInputs() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-mix-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
