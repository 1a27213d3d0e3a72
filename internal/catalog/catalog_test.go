package catalog

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// The catalog serves one logical relation whose tuples carry these columns;
// sym is the partition key throughout.
const (
	sqlVWAP = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	// sqlVWAP2 is sqlVWAP with different whitespace/case: same canonical form,
	// so it shares the first registration's indexes.
	sqlVWAP2 = `select sum(b.price * b.volume) from bids b where 0.75 * (select sum(b1.volume) from bids b1) < (select sum(b2.volume) from bids b2 where b2.price <= b.price)`
	// sqlVWAP90 differs only in the threshold constant: same predicate
	// signature, different canonical form — its own executor set.
	sqlVWAP90 = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.9 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	sqlEq = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
    = (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.a = b.a)`
	sqlNested = `SELECT SUM(b.volume) FROM bids b
WHERE b.volume > 0.001 * (SELECT SUM(b1.volume) FROM bids b1)
AND 0.5 * (SELECT COUNT(*) FROM bids b2) <= (SELECT COUNT(*) FROM bids b3 WHERE b3.price <= b.price)`
)

func mustParse(t *testing.T, sql string) *query.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// catEvents generates an insert/delete trace over sym partitions with the
// column set every test query touches.
func catEvents(seed int64, n, partitions int) []engine.Event {
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
		tup := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
			"a":      float64(rng.Intn(8) + 1),
		}
		live = append(live, tup)
		out = append(out, engine.Insert(tup))
	}
	return out
}

// applyBatches streams events in fixed-size batches through fn.
func applyBatches(t *testing.T, events []engine.Event, size int, fn func([]engine.Event) error) {
	t.Helper()
	for len(events) > 0 {
		n := size
		if n > len(events) {
			n = len(events)
		}
		if err := fn(events[:n]); err != nil {
			t.Fatal(err)
		}
		events = events[n:]
	}
}

// groupsEqual is bit-exact equality of grouped results.
func groupsEqual(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || a[i].Value != b[i].Value {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
	}
	return true
}

// TestCatalogExplainColumnPredicate: a column-vs-aggregate predicate runs on
// the relation-state executor, and EXPLAIN names the level tree backing it.
func TestCatalogExplainColumnPredicate(t *testing.T) {
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	_, ex, err := cat.Register(`SELECT SUM(b.price * b.volume) FROM bids b
WHERE b.price < 0.001 * (SELECT SUM(b1.volume) FROM bids b1)`)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Strategy != "relstate" || ex.IndexKind != "level-tree" || ex.KeyCol != "price" {
		t.Fatalf("column-predicate explain = %+v", ex)
	}
}

func TestCatalogRegisterSharingExplain(t *testing.T) {
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	id1, ex1, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Strategy != "relstate" || ex1.IndexKind != "rpai-arena" || ex1.KeyCol != "price" {
		t.Fatalf("vwap explain = %+v", ex1)
	}
	if len(ex1.SharedWith) != 0 {
		t.Fatalf("first registration shares: %v", ex1.SharedWith)
	}
	if ex1.StateKey == "" || ex1.Probe != "sum@0.75" {
		t.Fatalf("vwap state/probe split = %q / %q", ex1.StateKey, ex1.Probe)
	}

	// Same canonical form, still no ingest: must share the executor set.
	id2, ex2, err := cat.Register(sqlVWAP2)
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Canonical != ex2.Canonical {
		t.Fatalf("canonical forms differ: %q vs %q", ex1.Canonical, ex2.Canonical)
	}
	if len(ex2.SharedWith) != 1 || ex2.SharedWith[0] != id1 {
		t.Fatalf("shared-with = %v, want [%d]", ex2.SharedWith, id1)
	}
	if len(ex2.SharedExact) != 1 || ex2.SharedExact[0] != id1 || len(ex2.SharedFamily) != 0 {
		t.Fatalf("exact sharing split = exact %v family %v", ex2.SharedExact, ex2.SharedFamily)
	}

	// Different constant: same predicate signature, so the registration
	// joins the family set as its own fan lane rather than founding a set.
	_, ex3, err := cat.Register(sqlVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex3.SharedWith) != 2 {
		t.Fatalf("family registration shared-with = %v, want both vwap ids", ex3.SharedWith)
	}
	if len(ex3.SharedFamily) != 2 || len(ex3.SharedExact) != 0 {
		t.Fatalf("family sharing split = exact %v family %v", ex3.SharedExact, ex3.SharedFamily)
	}
	if ex3.PredSig != ex1.PredSig {
		t.Fatalf("predicate signatures differ:\n %s\n %s", ex3.PredSig, ex1.PredSig)
	}
	if ex3.Canonical == ex1.Canonical {
		t.Fatal("different constants rendered to the same canonical form")
	}

	if _, ex4, err := cat.Register(sqlEq); err != nil {
		t.Fatal(err)
	} else if ex4.Strategy != "aggindex" || ex4.IndexKind != "pai" || ex4.KeyCol != "a" {
		t.Fatalf("eq explain = %+v", ex4)
	}
	if _, ex5, err := cat.Register(sqlNested); err != nil {
		t.Fatal(err)
	} else if ex5.Strategy != "general" {
		t.Fatalf("nested explain = %+v", ex5)
	}

	// Joining is retroactive: a registration arriving after ingest still
	// joins its set and inherits the family's history — it is the family's
	// variant, not a fresh query starting from empty.
	events := catEvents(3, 200, 5)
	applyBatches(t, events, 32, cat.ApplyBatch)
	idLate, exLate, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	if len(exLate.SharedWith) != 3 {
		t.Fatalf("post-ingest registration shares with %v, want the three vwap ids", exLate.SharedWith)
	}
	if exLate.StateSince != 0 {
		t.Fatalf("late joiner's StateSince = %d, want the family's founding epoch 0", exLate.StateSince)
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	r1, err := cat.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cat.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	rLate, err := cat.Result(idLate)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("shared registrations disagree: %v vs %v", r1, r2)
	}
	if rLate != r1 {
		t.Fatalf("retroactive joiner reads %v, family reads %v", rLate, r1)
	}

	// List is ordered by ID and Unregister of one sharer keeps the set alive.
	list := cat.List()
	if len(list) != 6 {
		t.Fatalf("List len = %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatal("List not ordered by ID")
		}
	}
	if err := cat.Unregister(id1); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Result(id1); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Result after Unregister: %v", err)
	}
	if got, err := cat.Result(id2); err != nil || got != r2 {
		t.Fatalf("surviving sharer after Unregister: %v, %v", got, err)
	}
	if err := cat.Unregister(id1); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("double Unregister: %v", err)
	}
}

func TestCatalogRejectsBadQueries(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without PartitionBy accepted")
	}
	cat, err := New(Options{PartitionBy: []string{"sym"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	var pe *sqlparse.ParseError
	if _, _, err := cat.Register("SELECT MIN(a.price) FROM r a"); !errors.As(err, &pe) {
		t.Fatalf("bad SQL error = %v", err)
	}
	if cat.Len() != 0 {
		t.Fatal("failed Register left a registration behind")
	}
	cat.Close()
	if _, _, err := cat.Register(sqlVWAP); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: %v", err)
	}
	if err := cat.ApplyBatch(catEvents(1, 4, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ApplyBatch after Close: %v", err)
	}
}

// TestCatalogDifferential16 is the acceptance-criterion differential: a
// catalog of 16 registered queries must be bit-identical — scalar and
// grouped — to 16 independent single-query services fed the same batches.
func TestCatalogDifferential16(t *testing.T) {
	sqls := []string{
		sqlVWAP, sqlVWAP2, sqlVWAP90, sqlEq, sqlNested,
		sqlVWAP, sqlEq, sqlVWAP90, sqlNested, sqlVWAP2,
		sqlVWAP, sqlVWAP90, sqlEq, sqlNested, sqlVWAP, sqlEq,
	}
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	ids := make([]QueryID, len(sqls))
	indep := make([]*serve.Service, len(sqls))
	for i, sql := range sqls {
		id, _, err := cat.Register(sql)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		svc, err := serve.ForQuery(mustParse(t, sql), []string{"sym"}, serve.Options{Shards: 3, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		indep[i] = svc
		defer svc.Close()
	}

	events := catEvents(11, 3000, 17)
	applyBatches(t, events, 64, func(batch []engine.Event) error {
		if err := cat.ApplyBatch(batch); err != nil {
			return err
		}
		for _, svc := range indep {
			if err := svc.ApplyBatch(batch); err != nil {
				return err
			}
		}
		return nil
	})
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
			t.Fatalf("query %d (%q): catalog %v, independent %v", i, sqls[i][:40], got, want)
		}
		gotG, err := cat.ResultGrouped(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !groupsEqual(gotG, svc.ResultGrouped()) {
			t.Fatalf("query %d: grouped results diverged", i)
		}
	}
}

// TestCatalogOneWALRecordPerBatch pins the tentpole's durability contract:
// the WAL grows by exactly one record per applied batch no matter how many
// queries are registered.
func TestCatalogOneWALRecordPerBatch(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{sqlVWAP, sqlVWAP90, sqlEq, sqlNested} {
		if _, _, err := cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	events := catEvents(5, 300, 7)
	const batchSize = 25
	batches := 0
	applyBatches(t, events, batchSize, func(b []engine.Event) error {
		batches++
		return cat.ApplyBatch(b)
	})
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	records, evs := 0, 0
	var dec engine.EventDecoder
	h, _, err := checkpoint.ReadWAL(walPath(dir, 1), func(rec []byte) error {
		records++
		return decodeBatchRecord(rec, &dec, func(engine.Event) error {
			evs++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Gen != 1 || h.ShardCount != 1 {
		t.Fatalf("WAL header = %+v", h)
	}
	if records != batches {
		t.Fatalf("WAL has %d records for %d batches", records, batches)
	}
	if evs != len(events) {
		t.Fatalf("WAL replays %d events, ingested %d", evs, len(events))
	}
}

// crashCopy clones a catalog directory, simulating recovery on the files a
// crash would leave behind (the WAL is flushed per batch, so a drained
// catalog's directory is exactly the post-crash state).
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestCatalogRecover(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sqls := []string{sqlVWAP, sqlVWAP2, sqlEq, sqlNested}
	ids := make([]QueryID, len(sqls))
	for i, sql := range sqls {
		if ids[i], _, err = cat.Register(sql); err != nil {
			t.Fatal(err)
		}
	}
	events := catEvents(19, 1200, 9)
	pre, post := events[:800], events[800:]
	applyBatches(t, pre, 48, cat.ApplyBatch)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A constant variant registered after the checkpoint joins the vwap state
	// set (its snapshot is current, so no fork is needed); a structurally new
	// query founds a set with no snapshot directory and recovers from the WAL
	// suffix alone.
	idLate, _, err := cat.Register(sqlVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	const sqlNested40 = `SELECT SUM(b.volume) FROM bids b
WHERE b.volume > 0.001 * (SELECT SUM(b1.volume) FROM bids b1)
AND 0.4 * (SELECT COUNT(*) FROM bids b2) <= (SELECT COUNT(*) FROM bids b3 WHERE b3.price <= b.price)`
	idFresh, exFresh, err := cat.Register(sqlNested40)
	if err != nil {
		t.Fatal(err)
	}
	if len(exFresh.SharedWith) != 0 {
		t.Fatalf("structurally new query shares: %v", exFresh.SharedWith)
	}
	applyBatches(t, post, 48, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}

	want := map[QueryID]float64{}
	wantG := map[QueryID][]engine.GroupResult{}
	for _, id := range append(append([]QueryID{}, ids...), idLate, idFresh) {
		if want[id], err = cat.Result(id); err != nil {
			t.Fatal(err)
		}
		if wantG[id], err = cat.ResultGrouped(id); err != nil {
			t.Fatal(err)
		}
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	for name, rdir := range map[string]string{"clean": dir, "crash": crash} {
		rec, err := Recover(Options{Dir: rdir, Shards: 2, BatchSize: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Len() != len(sqls)+2 {
			t.Fatalf("%s: recovered %d registrations, want %d", name, rec.Len(), len(sqls)+2)
		}
		// Sharing survives: the two vwap registrations still explain each
		// other, and the post-checkpoint constant variant that joined their
		// state set retroactively is still a member.
		ex, err := rec.Get(ids[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ex.SharedWith) != 2 || ex.SharedWith[0] != ids[1] || ex.SharedWith[1] != idLate {
			t.Fatalf("%s: recovered sharing = %v", name, ex.SharedWith)
		}
		for id, w := range want {
			got, err := rec.Result(id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != w {
				t.Fatalf("%s: query %d recovered %v, want %v", name, id, got, w)
			}
			gotG, err := rec.ResultGrouped(id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !groupsEqual(gotG, wantG[id]) {
				t.Fatalf("%s: query %d grouped results diverged after recovery", name, id)
			}
		}
		// The recovered catalog keeps serving: new ingest and registration work.
		if _, _, err := rec.Register(sqlVWAP90); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		applyBatches(t, catEvents(23, 60, 9), 20, rec.ApplyBatch)
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// New on an existing catalog directory must refuse, not truncate.
	if _, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir}); err == nil {
		t.Fatal("New on an existing catalog directory accepted")
	}
	// Mismatched partition columns are rejected.
	if _, err := Recover(Options{Dir: dir, PartitionBy: []string{"other"}}); err == nil {
		t.Fatal("Recover with mismatched partition columns accepted")
	}
}

// TestCatalogRecoverDoubleCrash recovers, ingests more, crashes again, and
// recovers again — the rotation at the end of Recover must leave a directory
// that recovers cleanly.
func TestCatalogRecoverDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	events := catEvents(31, 600, 5)
	applyBatches(t, events[:200], 32, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	c1 := crashCopy(t, dir)
	cat.Close()

	rec1, err := Recover(Options{Dir: c1})
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, events[200:], 32, rec1.ApplyBatch)
	if err := rec1.DrainAll(); err != nil {
		t.Fatal(err)
	}
	var id QueryID
	if d, ok := rec1.Default(); ok {
		id = d
	} else {
		t.Fatal("no default query after recovery")
	}
	want, err := rec1.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	c2 := crashCopy(t, c1)
	rec1.Close()

	rec2, err := Recover(Options{Dir: c2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if got, err := rec2.Result(id); err != nil || got != want {
		t.Fatalf("second recovery: %v, %v (want %v)", got, err, want)
	}
	// Cross-check the full trace against a fresh engine reference.
	ref, err := serve.ForQuery(mustParse(t, sqlVWAP), []string{"sym"}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if want != ref.Result() {
		t.Fatalf("recovered result %v, reference %v", want, ref.Result())
	}
}

func TestCatalogStatsAndSubscribe(t *testing.T) {
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	id1, _, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := cat.Register(sqlEq)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cat.Subscribe(id1, serve.SubOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	events := catEvents(41, 120, 4)
	applyBatches(t, events, 30, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}

	stats := cat.Stats()
	if len(stats) != 2 || stats[0].ID != id1 || stats[1].ID != id2 {
		t.Fatalf("Stats = %+v", stats)
	}
	for _, st := range stats {
		if st.Applied != uint64(len(events)) {
			t.Fatalf("query %d applied %d, want %d", st.ID, st.Applied, len(events))
		}
		if st.Rejected != 0 {
			t.Fatalf("query %d rejected %d", st.ID, st.Rejected)
		}
	}
	if stats[0].Subscribers != 1 || stats[1].Subscribers != 0 {
		t.Fatalf("subscriber counts = %d, %d", stats[0].Subscribers, stats[1].Subscribers)
	}
	if stats[0].SetID == stats[1].SetID {
		t.Fatal("distinct queries report the same executor set")
	}

	// The subscription observed the ingest: frames must reach every shard's
	// post-drain snapshot version.
	shardStats, err := cat.ShardStats(id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shardStats) != 2 {
		t.Fatalf("ShardStats len = %d", len(shardStats))
	}
	target, err := cat.ShardVersions(id1)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]uint64, len(target))
	for _, sv := range target {
		want[sv.Shard] = sv.Version
	}
	deadline := time.After(5 * time.Second)
	versions := make(map[int]uint64)
	current := func() bool {
		for sh, v := range want {
			if versions[sh] < v {
				return false
			}
		}
		return true
	}
	for !current() {
		select {
		case f, ok := <-sub.Frames():
			if !ok {
				t.Fatal("subscription closed early")
			}
			versions[f.Shard] = f.Version
		case <-deadline:
			t.Fatalf("subscription stalled at %v, want %v", versions, want)
		}
	}
}

// TestCatalogAggregateVariants pins aggregate-variant sharing: SUM, COUNT(*)
// and AVG over the same predicate run as three probe plans on ONE state set,
// each bit-identical in grouped form to a dedicated engine executor.
func TestCatalogAggregateVariants(t *testing.T) {
	const sqlCount = `SELECT COUNT(*) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	const sqlAvg = `SELECT AVG(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	idSum, exSum, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	idCnt, exCnt, err := cat.Register(sqlCount)
	if err != nil {
		t.Fatal(err)
	}
	idAvg, exAvg, err := cat.Register(sqlAvg)
	if err != nil {
		t.Fatal(err)
	}
	if exCnt.StateKey != exSum.StateKey || exAvg.StateKey != exSum.StateKey {
		t.Fatalf("aggregate variants did not share state: %q / %q / %q",
			exSum.StateKey, exCnt.StateKey, exAvg.StateKey)
	}
	if exCnt.Probe != "count@0.75" || exAvg.Probe != "avg@0.75" {
		t.Fatalf("variant probes = %q / %q", exCnt.Probe, exAvg.Probe)
	}
	stats := cat.Stats()
	if stats[0].SetID != stats[1].SetID || stats[0].SetID != stats[2].SetID {
		t.Fatalf("aggregate variants occupy sets %d/%d/%d, want one set",
			stats[0].SetID, stats[1].SetID, stats[2].SetID)
	}

	events := catEvents(61, 500, 6)
	applyBatches(t, events, 32, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for id, sql := range map[QueryID]string{idSum: sqlVWAP, idCnt: sqlCount, idAvg: sqlAvg} {
		gotG, err := cat.ResultGrouped(id)
		if err != nil {
			t.Fatal(err)
		}
		wantG := engineGrouped(t, sql, events)
		if !groupsEqual(gotG, wantG) {
			t.Fatalf("query %d (%s) grouped results diverged from dedicated executors", id, sql[:20])
		}
	}
	// Ingest fans out once: one set, one application per batch.
	if n := cat.List()[0].IngestSets; n != 1 {
		t.Fatalf("IngestSets = %d, want 1", n)
	}
}

// engineGrouped evaluates sql per sym partition with dedicated engine
// executors — the ground truth grouped result for any aggregate, including
// top-level AVG (which the partitioned serving layer cannot run directly).
func engineGrouped(t *testing.T, sql string, events []engine.Event) []engine.GroupResult {
	t.Helper()
	q := mustParse(t, sql)
	execs := map[float64]engine.Executor{}
	var keys []float64
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
			keys = append(keys, k)
		}
		ex.Apply(e)
	}
	sort.Float64s(keys)
	out := make([]engine.GroupResult, 0, len(execs))
	for _, k := range keys {
		out = append(out, engine.GroupResult{Key: []float64{k}, Value: execs[k].Result()})
	}
	return out
}

// TestCatalogFilteredVariants pins filtered-variant sharing: a query carrying
// one extra bare partition-column conjunct joins the unfiltered query's state
// set, the conjunct becoming a residual probe-time gate.
func TestCatalogFilteredVariants(t *testing.T) {
	const sqlFiltered = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE b.sym > 2
AND 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	idBase, exBase, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	idFil, exFil, err := cat.Register(sqlFiltered)
	if err != nil {
		t.Fatal(err)
	}
	if exFil.StateKey != exBase.StateKey {
		t.Fatalf("filtered variant did not share state: %q vs %q", exFil.StateKey, exBase.StateKey)
	}
	if exFil.Residual != "sym > 2" || exFil.Probe != "sum@0.75 | sym > 2" {
		t.Fatalf("filtered variant split = probe %q residual %q", exFil.Probe, exFil.Residual)
	}
	if len(exFil.SharedWith) != 1 || exFil.SharedWith[0] != idBase {
		t.Fatalf("filtered variant sharing = %v", exFil.SharedWith)
	}

	events := catEvents(67, 500, 6)
	applyBatches(t, events, 32, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	// Bit-identical to a dedicated service running the filtered query whole.
	ref, err := serve.ForQuery(mustParse(t, sqlFiltered), []string{"sym"}, serve.Options{Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, err := cat.Result(idFil); err != nil || got != ref.Result() {
		t.Fatalf("filtered lane reads %v (%v), dedicated service %v", got, err, ref.Result())
	}
	gotG, err := cat.ResultGrouped(idFil)
	if err != nil {
		t.Fatal(err)
	}
	if !groupsEqual(gotG, ref.ResultGrouped()) {
		t.Fatal("filtered lane grouped results diverged from dedicated service")
	}
	if _, err := cat.Result(idBase); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogForkAttachRecover pins the checkpoint-fork join path: a late
// variant attaching to a durable ingested set forks the set's live state as
// a snapshot, and recovery restores the joined set from that fork — without
// replaying the family's earlier WAL records — bit-identically.
func TestCatalogForkAttachRecover(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := cat.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	events := catEvents(71, 600, 6)
	pre, post := events[:400], events[400:]
	applyBatches(t, pre, 40, cat.ApplyBatch)

	// The late joiner arrives mid-history: its attach must fork the set.
	id2, ex2, err := cat.Register(sqlVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.SharedWith) != 1 || ex2.SharedWith[0] != id1 {
		t.Fatalf("late joiner sharing = %v", ex2.SharedWith)
	}
	if ex2.Since == 0 {
		t.Fatal("late joiner's set Since still 0: the attach did not advance past the fork")
	}
	forks, err := filepath.Glob(filepath.Join(dir, "g1", "s*-f*"))
	if err != nil || len(forks) != 1 {
		t.Fatalf("fork snapshot dirs = %v (%v), want exactly one", forks, err)
	}
	applyBatches(t, post, 40, cat.ApplyBatch)
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want1, err := cat.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := cat.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Options{Dir: crash, Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for id, want := range map[QueryID]float64{id1: want1, id2: want2} {
		if got, err := rec.Result(id); err != nil || got != want {
			t.Fatalf("query %d recovered %v (%v), want %v", id, got, err, want)
		}
	}
	// Both lanes still equal dedicated services over the full trace.
	for id, sql := range map[QueryID]string{id1: sqlVWAP, id2: sqlVWAP90} {
		ref, err := serve.ForQuery(mustParse(t, sql), []string{"sym"}, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
		if err := ref.Drain(); err != nil {
			t.Fatal(err)
		}
		if got, _ := rec.Result(id); got != ref.Result() {
			t.Fatalf("query %d: recovered %v, dedicated %v", id, got, ref.Result())
		}
		ref.Close()
	}
}

// TestCatalogRotationForkReuse pins the rotation fast path: when a set's
// fork snapshot already reflects every WAL record, Checkpoint carries it
// into the next generation with checkpoint.Fork (a byte clone) instead of
// re-serializing, and the rotated directory still recovers bit-identically.
func TestCatalogRotationForkReuse(t *testing.T) {
	dir := t.TempDir()
	cat, err := New(Options{PartitionBy: []string{"sym"}, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	events := catEvents(73, 300, 5)
	applyBatches(t, events, 30, cat.ApplyBatch)
	// Attach forks at the current record index; no further ingest, so the
	// following rotation can clone the fork instead of snapshotting again.
	id2, _, err := cat.Register(sqlVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := cat.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Options{Dir: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, err := rec.Result(id2); err != nil || got != want {
		t.Fatalf("recovered %v (%v), want %v", got, err, want)
	}
}
