package wire

import (
	"testing"

	"rpai/internal/catalog"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// The catalog test queries: two spellings of the VWAP query (shared
// executor set), a different-constant variant (own set, same predicate
// signature), and an equality-correlated query (PAI strategy).
const (
	catSQLVWAP = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	catSQLVWAP2  = `select sum(b.price * b.volume) from bids b where 0.75 * (select sum(b1.volume) from bids b1) < (select sum(b2.volume) from bids b2 where b2.price <= b.price)`
	catSQLVWAP90 = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.9 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	catSQLEq = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
    = (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.a = b.a)`
)

// register registers sql over rc and returns the decoded EXPLAIN.
func (rc *rawConn) register(sql string) catalog.Explain {
	rc.t.Helper()
	rc.send(MsgRegister, EncodeRegister(nil, sql))
	tp, _, body := rc.recv()
	if tp != MsgRegistered {
		rc.t.Fatalf("register reply %s, want registered", tp)
	}
	ex, err := DecodeExplain(body)
	if err != nil {
		rc.t.Fatal(err)
	}
	return ex
}

// TestServerCatalogRoundtrip drives the catalog message catalogue over one
// loopback connection: runtime registration with sharing reported in EXPLAIN,
// QueryID-routed reads bit-identical to independent single-query services,
// the per-query stats table, and unregistration.
func TestServerCatalogRoundtrip(t *testing.T) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, cat, ServerConfig{})
	rc := dialRaw(t, addr, 21)

	sqls := []string{catSQLVWAP, catSQLVWAP2, catSQLVWAP90, catSQLEq}
	exs := make([]catalog.Explain, len(sqls))
	for i, sql := range sqls {
		exs[i] = rc.register(sql)
	}
	if len(exs[1].SharedWith) != 1 || exs[1].SharedWith[0] != exs[0].ID {
		t.Fatalf("duplicate registration shared-with = %v, want [%d]", exs[1].SharedWith, exs[0].ID)
	}
	if len(exs[2].SharedFamily) != 2 || len(exs[2].SharedExact) != 0 || exs[2].PredSig != exs[0].PredSig {
		t.Fatalf("constant variant: family %v exact %v, sig match %v",
			exs[2].SharedFamily, exs[2].SharedExact, exs[2].PredSig == exs[0].PredSig)
	}
	if exs[0].Strategy != "relstate" || exs[3].Strategy == exs[0].Strategy && exs[3].IndexKind == exs[0].IndexKind {
		t.Fatalf("strategies: vwap %s/%s, eq %s/%s", exs[0].Strategy, exs[0].IndexKind, exs[3].Strategy, exs[3].IndexKind)
	}

	// Independent reference services, fed the same trace in-process.
	events := symEvents(29, 1500, 9)
	for _, e := range events {
		t2 := e.Tuple
		t2["a"] = t2["price"] // the Eq query correlates on column a
	}
	refs := make([]*serve.Service, len(sqls))
	for i, sql := range sqls {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if refs[i], err = serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		defer refs[i].Close()
		if err := refs[i].ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
		if err := refs[i].Drain(); err != nil {
			t.Fatal(err)
		}
	}

	// Ingest over the wire in sequenced batches, then barrier.
	raw := encodeEvents(events)
	seq := uint64(0)
	for i := 0; i < len(raw); i += 256 {
		end := min(i+256, len(raw))
		seq++
		rc.send(MsgApplyBatch, EncodeBatch(nil, seq, raw[i:end]))
		if tp, _, _ := rc.recv(); tp != MsgAck {
			t.Fatalf("batch reply %s, want ack", tp)
		}
	}
	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}

	for i, ex := range exs {
		rc.send(MsgResultQ, EncodeQueryID(nil, ex.ID))
		_, _, body := rc.recv()
		got, err := DecodeScalar(body)
		if err != nil {
			t.Fatal(err)
		}
		if want := refs[i].Result(); got != want {
			t.Fatalf("query %d networked result %v, want %v", i, got, want)
		}
		rc.send(MsgGroupedQ, EncodeQueryID(nil, ex.ID))
		_, _, body = rc.recv()
		groups, err := DecodeGrouped(body)
		if err != nil {
			t.Fatal(err)
		}
		want := refs[i].ResultGrouped()
		if len(groups) != len(want) {
			t.Fatalf("query %d: %d groups, want %d", i, len(groups), len(want))
		}
		for j := range groups {
			if groups[j].Value != want[j].Value {
				t.Fatalf("query %d group %d = %+v, want %+v", i, j, groups[j], want[j])
			}
		}
	}

	// EXPLAIN and the list reply must round-trip the registrations.
	rc.send(MsgExplain, EncodeQueryID(nil, exs[3].ID))
	tp, _, body := rc.recv()
	if tp != MsgExplained {
		t.Fatalf("explain reply %s", tp)
	}
	ex, err := DecodeExplain(body)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ID != exs[3].ID || ex.Strategy != exs[3].Strategy {
		t.Fatalf("explained %+v, want %+v", ex, exs[3])
	}
	rc.send(MsgListQueries, nil)
	tp, _, body = rc.recv()
	if tp != MsgQueryList {
		t.Fatalf("list reply %s", tp)
	}
	list, err := DecodeQueryList(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(sqls) {
		t.Fatalf("list has %d queries, want %d", len(list), len(sqls))
	}
	for i := range list {
		if list[i].ID != exs[i].ID || list[i].Canonical != exs[i].Canonical {
			t.Fatalf("list entry %d = %+v, want %+v", i, list[i], exs[i])
		}
	}

	// The stats reply carries the per-query counter table.
	rc.send(MsgStats, nil)
	_, _, body = rc.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != len(sqls) {
		t.Fatalf("stats report %d queries, want %d", len(st.Queries), len(sqls))
	}
	for i, qs := range st.Queries {
		if qs.ID != uint64(exs[i].ID) || qs.Applied != uint64(len(events)) {
			t.Fatalf("query stats %d = %+v, want id %d applied %d", i, qs, exs[i].ID, len(events))
		}
	}
	// The two exact duplicates AND the constant variant collapse into one
	// family set; the eq query keeps its own.
	if st.Queries[0].SetID != st.Queries[1].SetID || st.Queries[0].SetID != st.Queries[2].SetID ||
		st.Queries[0].SetID == st.Queries[3].SetID {
		t.Fatalf("set ids %d/%d/%d/%d break the sharing topology",
			st.Queries[0].SetID, st.Queries[1].SetID, st.Queries[2].SetID, st.Queries[3].SetID)
	}

	// Unregister the shared duplicate; the survivor keeps serving.
	rc.send(MsgUnregister, EncodeQueryID(nil, exs[1].ID))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("unregister not acked")
	}
	rc.send(MsgResultQ, EncodeQueryID(nil, exs[1].ID))
	rc.errCode(CodeBadRequest)
	rc.send(MsgResultQ, EncodeQueryID(nil, exs[0].ID))
	_, _, body = rc.recv()
	if got, _ := DecodeScalar(body); got != refs[0].Result() {
		t.Fatalf("survivor result %v, want %v", got, refs[0].Result())
	}

	// A malformed registration is refused without tearing the connection down.
	rc.send(MsgRegister, EncodeRegister(nil, "SELECT FROM WHERE"))
	rc.errCode(CodeBadRequest)
	rc.send(MsgResultQ, EncodeQueryID(nil, exs[0].ID))
	if tp, _, _ := rc.recv(); tp != MsgScalar {
		t.Fatalf("connection unusable after refused registration: %s", tp)
	}
}

// TestServerCatalogSubscribeQ subscribes to one registered query by id and
// checks the pushed MsgDeltaQ frames converge on that query's grouped state.
func TestServerCatalogSubscribeQ(t *testing.T) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	id1, _, err := cat.Register(catSQLVWAP)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := cat.Register(catSQLVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, cat, ServerConfig{})

	events := symEvents(31, 400, 5)
	if err := cat.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := cat.DrainAll(); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr, 24)
	rc.send(MsgSubscribeQ, EncodeSubscribeQ(nil, id2, Subscribe{}))
	tp, _, body := rc.recv()
	if tp != MsgSubscribed {
		t.Fatalf("subscribe-q reply %s", tp)
	}
	ack, err := DecodeSubscribed(body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Shards != 2 {
		t.Fatalf("subscribed ack %+v, want 2 shards", ack)
	}

	// The reseed frames must carry id2's state (the 0.9-threshold query), not
	// id1's, and every push must be a MsgDeltaQ tagged with id2.
	want, err := cat.ResultGrouped(id2)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[float64]float64)
	seen := 0
	for seen < 2 {
		tp, _, body := rc.recv()
		if tp != MsgDeltaQ {
			t.Fatalf("push frame %s, want delta-q", tp)
		}
		qid, f, err := DecodeDeltaQ(body)
		if err != nil {
			t.Fatal(err)
		}
		if qid != id2 {
			t.Fatalf("push routed to query %d, want %d", qid, id2)
		}
		if !f.Full {
			t.Fatalf("reseed frame not marked Full: %+v", f)
		}
		for _, g := range f.Groups {
			got[g.Key[0]] = g.Value
		}
		seen++
	}
	if len(got) != len(want) {
		t.Fatalf("reseed delivered %d groups, want %d", len(got), len(want))
	}
	for _, g := range want {
		if got[g.Key[0]] != g.Value {
			t.Fatalf("group %v = %v, want %v", g.Key, got[g.Key[0]], g.Value)
		}
	}
	_ = id1
}
