// Wiredemo: the networked serving layer end to end, in one process.
//
// This example boots the wire-protocol server (the core of cmd/rpaiserver)
// over a one-query catalog — what `rpaiserver -register` serves — on a
// loopback port, then drives it with the pipelined client: batched applies
// routed by symbol, a drain barrier, scalar and grouped reads by QueryID, and
// the stats RPC. The
// networked results are compared bit for bit against an in-process service
// fed the same trace — the serving layer adds a network without changing a
// single bit of the query's semantics.
//
// Run with: go run ./examples/wiredemo
package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

func vwap() *query.Query {
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

// vwapSQL is vwap() as the SQL a client (or rpaiserver -register) registers.
const vwapSQL = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

func main() {
	q := vwap()

	// Server side: a 4-shard catalog serving the one query behind the TCP
	// front door. The client reads it by the QueryID Register assigned.
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 4})
	check(err)
	id, ex, err := cat.Register(vwapSQL)
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{})
	go srv.Serve(ln)
	fmt.Printf("serving %s\n  on %s with %d shards\n\n", ex.Canonical, ln.Addr(), cat.Shards())

	// Reference: an identical in-process service fed the same trace.
	ref, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 4})
	check(err)

	// Client side: two pooled connections, events routed by symbol so each
	// symbol's event order is preserved end to end.
	c, err := client.Dial(ln.Addr().String(), client.Options{
		Conns:         2,
		BatchSize:     64,
		FlushInterval: time.Millisecond,
		Route:         func(e engine.Event) int { return int(e.Tuple["sym"]) },
	})
	check(err)

	rng := rand.New(rand.NewSource(42))
	var live []query.Tuple
	const n = 20000
	trace := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev engine.Event
		if len(live) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(live))
			ev = engine.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			t := query.Tuple{
				"sym":    float64(rng.Intn(16)),
				"price":  float64(rng.Intn(30) + 1),
				"volume": float64(rng.Intn(20) + 1),
			}
			live = append(live, t)
			ev = engine.Insert(t)
		}
		check(c.Apply(ev))
		trace = append(trace, ev)
	}
	check(ref.ApplyBatch(trace))
	check(c.Drain()) // barrier: every event applied server-side
	check(ref.Drain())

	got, err := c.ResultQuery(id)
	check(err)
	fmt.Printf("networked result:  %g\n", got)
	fmt.Printf("in-process result: %g\n", ref.Result())
	if got != ref.Result() {
		panic("results diverged")
	}

	groups, err := c.ResultGroupedQuery(id)
	check(err)
	want := ref.ResultGrouped()
	for i, g := range groups {
		if want[i].Value != g.Value {
			panic("grouped results diverged")
		}
	}
	fmt.Printf("grouped results:   %d symbols, bit-identical over the wire\n\n", len(groups))

	st, err := c.Stats()
	check(err)
	fmt.Printf("server stats: %d accepted, %d shed, %d conns\n",
		st.Server.Accepted, st.Server.Shed, st.Server.ActiveConns)
	var applied uint64
	for _, sh := range st.Shards {
		applied += sh.Applied
	}
	fmt.Printf("shard stats:  %d events applied across %d shards\n", applied, len(st.Shards))

	check(c.Close())
	check(srv.Close())
	check(cat.DrainAll())
	check(cat.Close())
	fmt.Println("\nclean shutdown")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
