package client_test

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// vwapSpec is Example 2.2, the per-partition query of the serving tests.
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

// symEvents generates an insert/delete trace over "sym"-keyed partitions.
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

// oneQuery is a one-query catalog read through its QueryID 1: the in-process
// twin of what the client's ResultQuery(1) and ResultGroupedQuery(1) read
// over the wire.
type oneQuery struct {
	t   *testing.T
	cat *catalog.Service
}

func (q oneQuery) Result() float64 {
	q.t.Helper()
	v, err := q.cat.Result(1)
	if err != nil {
		q.t.Fatal(err)
	}
	return v
}

func (q oneQuery) ResultGrouped() []engine.GroupResult {
	q.t.Helper()
	g, err := q.cat.ResultGrouped(1)
	if err != nil {
		q.t.Fatal(err)
	}
	return g
}

func (q oneQuery) ShardVersions() []serve.ShardVersion {
	q.t.Helper()
	v, err := q.cat.ShardVersions(1)
	if err != nil {
		q.t.Fatal(err)
	}
	return v
}

// startServer boots a wire server over a catalog serving only the vwap query
// as QueryID 1 — what rpaiserver -register boots — and returns its address
// plus the query (for direct result comparison).
func startServer(t *testing.T, shards int, cfg wire.ServerConfig) (string, oneQuery) {
	t.Helper()
	addr, cat := startCatalogServer(t, shards, cfg)
	if _, _, err := cat.Register(catSQLVWAP); err != nil {
		t.Fatal(err)
	}
	return addr, oneQuery{t, cat}
}

// chaosProxy forwards TCP byte streams to a backend and can kill every live
// proxied connection on demand, tearing sockets down mid-frame.
type chaosProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	kills   atomic.Uint64
}

func startProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, conns: map[net.Conn]struct{}{}}
	go p.accept()
	t.Cleanup(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		ln.Close()
		p.KillAll()
	})
	return p
}

func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			b.Close()
			return
		}
		p.conns[c] = struct{}{}
		p.conns[b] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go pipe(c, b)
		go pipe(b, c)
	}
}

// KillAll severs every proxied connection at a byte-stream boundary of its
// choosing — frames in flight are torn.
func (p *chaosProxy) KillAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.kills.Add(1)
}

// TestClientBasic drives the happy path: batched ingestion, the drain
// barrier, reads, stats, and the batch-ack hook.
func TestClientBasic(t *testing.T) {
	addr, svc := startServer(t, 4, wire.ServerConfig{})
	events := symEvents(3, 1500, 11)

	var acks atomic.Uint64
	c, err := client.Dial(addr, client.Options{
		Conns:     2,
		BatchSize: 64,
		Route:     func(e engine.Event) int { return int(e.Tuple["sym"]) },
		OnBatchAck: func(d time.Duration) {
			if d < 0 {
				t.Error("negative batch latency")
			}
			acks.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, e := range events {
		if err := c.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if acks.Load() == 0 {
		t.Fatal("batch-ack hook never fired")
	}

	got, err := c.ResultQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := svc.Result(); got != want {
		t.Fatalf("Result = %v, want %v", got, want)
	}
	groups, err := c.ResultGroupedQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	want := svc.ResultGrouped()
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i := range groups {
		if groups[i].Value != want[i].Value {
			t.Fatalf("group %d = %v, want %v", i, groups[i].Value, want[i].Value)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var applied uint64
	for _, sh := range st.Shards {
		applied += sh.Applied
	}
	if applied != uint64(len(events)) {
		t.Fatalf("server applied %d events, want %d", applied, len(events))
	}
	if st.Server.ActiveConns != 2 {
		t.Fatalf("active conns %d, want 2", st.Server.ActiveConns)
	}

	// Checkpoint against a server with no data dir is a permanent, typed
	// error — and must not poison the client.
	if err := c.Checkpoint(); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("Checkpoint = %v, want ErrBadRequest", err)
	}
	if _, err := c.ResultQuery(1); err != nil {
		t.Fatalf("client poisoned after typed error: %v", err)
	}
}

// TestClientKillMidBatchDifferential is the satellite's crash test: a proxy
// kills every TCP connection repeatedly while batches are in flight, the
// client reconnects and re-sends, and the server's final state must be
// bit-identical to an in-process service fed the same trace — exactly once,
// no loss, no double apply.
func TestClientKillMidBatchDifferential(t *testing.T) {
	q := vwapSpec()
	events := symEvents(17, 6000, 23)

	// In-process reference.
	ref, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 4})
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

	addr, _ := startServer(t, 4, wire.ServerConfig{})
	proxy := startProxy(t, addr)

	c, err := client.Dial(proxy.Addr(), client.Options{
		Conns:         2,
		BatchSize:     16,
		FlushInterval: time.Millisecond,
		MaxInFlight:   8,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		Route:         func(e engine.Event) int { return int(e.Tuple["sym"]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, e := range events {
		if i > 0 && i%800 == 0 {
			proxy.KillAll() // sever every connection mid-stream
		}
		if err := c.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	proxy.KillAll() // one more with the tail in flight
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if proxy.kills.Load() < 8 {
		t.Fatalf("only %d kills fired; trace too short to exercise reconnects", proxy.kills.Load())
	}

	got, err := c.ResultQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Result(); got != want {
		t.Fatalf("networked Result = %v, want %v (exactly-once violated)", got, want)
	}
	groups, err := c.ResultGroupedQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ResultGrouped()
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i := range groups {
		if groups[i].Key[0] != want[i].Key[0] || groups[i].Value != want[i].Value {
			t.Fatalf("group %d = %+v, want %+v", i, groups[i], want[i])
		}
	}
}

// TestClientDialFailure pins fail-fast dialing.
func TestClientDialFailure(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1", client.Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial to dead port succeeded")
	}
}

// TestClientClose pins post-Close behavior.
func TestClientClose(t *testing.T) {
	addr, _ := startServer(t, 1, wire.ServerConfig{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Apply(engine.Insert(query.Tuple{"sym": 1})); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("Apply after Close = %v", err)
	}
	if _, err := c.ResultQuery(1); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("Result after Close = %v", err)
	}
}
