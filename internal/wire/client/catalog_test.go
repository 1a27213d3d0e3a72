package client_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

const (
	catSQLVWAP = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	catSQLVWAP90 = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.9 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
)

// startCatalogServer boots a wire server over an empty catalog and returns its
// address plus the catalog (for direct result comparison).
func startCatalogServer(t *testing.T, shards int, cfg wire.ServerConfig) (string, *catalog.Service) {
	t.Helper()
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewCatalogServer(cat, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		cat.Close()
	})
	return ln.Addr().String(), cat
}

// TestClientCatalog drives the catalog lifecycle through the pooled client:
// register, ingest through Apply, QueryID-routed reads, list/explain,
// per-query subscription, and unregister.
func TestClientCatalog(t *testing.T) {
	addr, cat := startCatalogServer(t, 2, wire.ServerConfig{})
	c, err := client.Dial(addr, client.Options{Conns: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ex1, err := c.Register(catSQLVWAP)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := c.Register(catSQLVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Strategy != "relstate" || ex2.ID == ex1.ID {
		t.Fatalf("explains %+v / %+v", ex1, ex2)
	}
	if _, err := c.Register("SELECT nonsense"); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("bad registration error %v, want ErrBadRequest", err)
	}

	events := symEvents(41, 800, 6)
	for _, e := range events {
		if err := c.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	for _, ex := range []catalog.Explain{ex1, ex2} {
		got, err := c.ResultQuery(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cat.Result(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d result %v, want %v", ex.ID, got, want)
		}
		groups, err := c.ResultGroupedQuery(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantG, err := cat.ResultGrouped(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != len(wantG) {
			t.Fatalf("query %d: %d groups, want %d", ex.ID, len(groups), len(wantG))
		}
	}

	list, err := c.ListQueries()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != ex1.ID || list[1].ID != ex2.ID {
		t.Fatalf("list %+v", list)
	}
	got, err := c.ExplainQuery(ex2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical != ex2.Canonical {
		t.Fatalf("explain canonical %q, want %q", got.Canonical, ex2.Canonical)
	}

	// The per-query stats table arrives on the v4 stats reply.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != 2 || st.Queries[0].Applied != uint64(len(events)) {
		t.Fatalf("stats queries %+v", st.Queries)
	}

	// A routed subscription converges on the target query's grouped state.
	sub, err := c.SubscribeQuery(ex2.ID, client.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	want, err := cat.ResultGrouped(ex2.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotG := make(map[float64]float64)
	deadline := time.After(5 * time.Second)
	for len(gotG) < len(want) {
		select {
		case f, ok := <-sub.Frames():
			if !ok {
				t.Fatalf("subscription ended early: %v", sub.Err())
			}
			for _, g := range f.Groups {
				gotG[g.Key[0]] = g.Value
			}
		case <-deadline:
			t.Fatalf("reseed incomplete: %d of %d groups", len(gotG), len(want))
		}
	}
	for _, g := range want {
		if gotG[g.Key[0]] != g.Value {
			t.Fatalf("group %v = %v, want %v", g.Key, gotG[g.Key[0]], g.Value)
		}
	}

	if err := c.Unregister(ex1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResultQuery(ex1.ID); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("read of unregistered query: %v, want ErrBadRequest", err)
	}
	if _, err := c.ResultQuery(ex2.ID); err != nil {
		t.Fatalf("survivor read failed: %v", err)
	}
}

// TestClientCatalogAgainstPlainServer: a server booted with one query — what
// `rpaiserver -register` serves — is a catalog like any other. The catalog
// calls work against it, the boot query keeps serving by its QueryID, and a
// refused registration surfaces ErrBadRequest without wedging the pool.
func TestClientCatalogAgainstPlainServer(t *testing.T) {
	addr, _ := startServer(t, 1, wire.ServerConfig{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ex, err := c.Register(catSQLVWAP90)
	if err != nil {
		t.Fatalf("register against a one-query server: %v", err)
	}
	if ex.ID != 2 || len(ex.SharedWith) != 1 || ex.SharedWith[0] != 1 {
		t.Fatalf("runtime registration = id %d sharing %v, want id 2 sharing the boot query's state", ex.ID, ex.SharedWith)
	}
	if _, err := c.Register("SELECT FROM WHERE"); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("malformed register: %v, want ErrBadRequest", err)
	}
	if err := c.Unregister(ex.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ResultQuery(1); err != nil {
		t.Fatalf("pool unusable after refused catalog call: %v", err)
	}
}
