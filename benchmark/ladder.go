package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rpai/internal/aggindex"
	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// The layer ladder pushes one event stream — the workload's preload, then
// as many steady-state events again — through the stack's layers one at a
// time, in this process, from the bottom up. A rung contains every rung below
// it, so the cost a layer adds is its rung's ns/event minus the rung
// below's. Each rung starts from fresh state, preloads untimed, and records
// one span per batch call into its public entry point.
//
// The durability rung sits on the catalog, not on serve.Options.Dir as the
// issue sketched: the daemon in catalog mode logs to the catalog's shared
// WAL, so that is the log whose cost the end-to-end numbers contain.

// ladderBatch is the batch size every rung is fed in: the wire client's.
const ladderBatch = clientBatchSize

// ladderMaxEvents caps a rung's timed events, which otherwise number as many
// as the preload, so that the eight rungs fit a traced run's wall time.
const ladderMaxEvents = 100000

type ladder struct {
	rc   runConfig
	res  *runResult
	tr   *tracer
	q0   *query.Query
	n    int // timed events per rung
	cost map[string]float64
}

func runLadder(rc runConfig, res *runResult, tr *tracer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serverProcs()))
	q0, err := sqlparse.Parse(rc.W.Queries[0].SQL())
	if err != nil {
		return err
	}
	l := &ladder{rc: rc, res: res, tr: tr, q0: q0, n: min(rc.W.Preload, ladderMaxEvents), cost: make(map[string]float64)}
	for _, rung := range []func() error{l.aggindex, l.engine, l.serve, l.catalogs, l.wire} {
		if err := rung(); err != nil {
			return err
		}
	}
	c := l.cost
	res.layer("aggindex.ops_ns_per_event", c["aggindex"], "ns")
	res.layer("serve.self_ns_per_event", c["serve"]-c["engine"], "ns")
	res.layer("catalog.self_ns_per_event", c["catalog-1"]-c["serve"], "ns")
	res.layer("checkpoint.wal_self_ns_per_event", c["catalog-1+wal"]-c["catalog-1"], "ns")
	res.layer("catalog.fanout_rel_cost", c["catalog-all"]/c["catalog-1+wal"], "ratio")
	res.layer("wire.self_ns_per_event", c["wire"]-c["catalog-all"], "ns")
	res.layer("wire.push_self_ns_per_event", c["wire+subs"]-c["wire"], "ns")
	return nil
}

// stream is one rung's input: the same events for every rung, generated
// and boxed a batch at a time so that the rung's heap holds its own state and
// not two hundred thousand pre-built tuples for the collector to trace.
type stream struct {
	g   *Gen
	buf []engine.Event
}

func (l *ladder) stream() *stream { return &stream{g: NewGen(l.rc.W, l.rc.Seed)} }

func (s *stream) batch(n int, next func() Event) []engine.Event {
	s.buf = s.buf[:0]
	for i := 0; i < n; i++ {
		s.buf = append(s.buf, next().boxed())
	}
	return s.buf
}

// preload feeds the workload's P inserts to apply, untimed.
func (s *stream) preload(apply func([]engine.Event) error) error {
	for left := s.g.w.Preload; left > 0; left -= ladderBatch {
		if err := apply(s.batch(min(left, ladderBatch), s.g.Insert)); err != nil {
			return err
		}
	}
	return nil
}

// ladderChunk is how many events a rung is fed between barriers. The
// layers above the engine apply events on other goroutines, so work a batch
// call starts may finish after it returns; a barrier at the end of every
// chunk, timed as a span of its own, keeps all of a chunk's work inside the
// chunk's spans. The chunk's events are boxed before its first span opens.
const ladderChunk = 32 * ladderBatch

// timed feeds the rung's timed events to apply in ladderBatch-sized calls,
// one span each, with finish (the rung's barrier, nil if it has none) timed
// as one more span per chunk, and returns the rung's ns/event.
func (l *ladder) timed(rung string, s *stream, apply func([]engine.Event) error, finish func() error) (float64, error) {
	return l.timedBy(ladderBatch, rung, s, apply, finish)
}

// timedBy is timed with the size of the apply calls given.
func (l *ladder) timedBy(batch int, rung string, s *stream, apply func([]engine.Event) error, finish func() error) (float64, error) {
	name := ladderPrefix + rung
	var total time.Duration
	seq := int64(0)
	for left := l.n; left > 0; left -= ladderChunk {
		chunk := append([]engine.Event(nil), s.batch(min(left, ladderChunk), s.g.Next)...)
		for i := 0; i < len(chunk); i, seq = i+batch, seq+1 {
			b := chunk[i:min(i+batch, len(chunk))]
			t0 := time.Now()
			if err := apply(b); err != nil {
				return 0, err
			}
			t1 := time.Now()
			l.tr.add(name, t0, t1, -1, seq, len(b))
			total += t1.Sub(t0)
		}
		if finish != nil {
			t0 := time.Now()
			if err := finish(); err != nil {
				return 0, err
			}
			t1 := time.Now()
			l.tr.add(name, t0, t1, -1, -1, 0)
			total += t1.Sub(t0)
		}
	}
	per := float64(total.Nanoseconds()) / float64(l.n)
	l.cost[rung] = per
	return per, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// indexKind maps the plan's index name onto the aggindex kind the engine
// built, so this rung times whatever structure the executors really use.
func indexKind(q *query.Query) (aggindex.Kind, error) {
	plan, err := engine.Describe(q)
	if err != nil {
		return "", err
	}
	name := strings.TrimPrefix(plan.IndexKind, "rpai-")
	for _, k := range aggindex.Kinds() {
		if string(k) == name || string(k) == plan.IndexKind {
			return k, nil
		}
	}
	return "", fmt.Errorf("plan index kind %q is not an aggindex kind", plan.IndexKind)
}

// aggindex times the bare index at the size and shape the preloaded state
// gives it: per partition, one key per live price level (the prefix volume,
// as the executors key it), in two indexes (count side and term side).
func (l *ladder) aggindex() error {
	kind, err := indexKind(l.q0)
	if err != nil {
		return err
	}
	w := l.rc.W
	g := NewGen(w, l.rc.Seed)
	for i := 0; i < w.Preload; i++ {
		g.Insert()
	}
	type part struct {
		cnt, term aggindex.Index
		keys      []float64 // ascending; keys[j] is level j's prefix volume
	}
	before := heapAlloc()
	parts := make([]part, w.Partitions)
	totalKeys := 0
	for sym := range parts {
		p := part{cnt: aggindex.New(kind), term: aggindex.New(kind)}
		var prefix int64
		for lv := 0; lv < w.Levels; lv++ {
			cell := sym*w.Levels + lv
			if g.cnt[cell] == 0 {
				continue
			}
			prefix += g.vol[cell]
			p.cnt.Add(float64(prefix), float64(g.cnt[cell]))
			p.term.Add(float64(prefix), float64(int64(lv+1)*g.vol[cell]))
			p.keys = append(p.keys, float64(prefix))
		}
		totalKeys += len(p.keys)
		parts[sym] = p
	}
	heap := heapAlloc() - before
	l.res.layer("aggindex.keys_per_partition", float64(totalKeys)/float64(w.Partitions), "count")
	l.res.layer("aggindex.heap_bytes_per_key", float64(heap)/float64(2*totalKeys), "bytes")

	// picks are uniformly random (partition, level) positions, the access
	// pattern the uniform event stream induces.
	const ops = 1 << 16
	type pick struct {
		p    *part
		k    float64 // the level's key
		prev float64 // the key below it (0 for the lowest level)
	}
	picks := make([]pick, 0, ops)
	rng := NewGen(w, l.rc.Seed+1)
	for len(picks) < ops {
		p := &parts[rng.intn(w.Partitions)]
		if len(p.keys) == 0 {
			continue
		}
		j := rng.intn(len(p.keys))
		pk := pick{p: p, k: p.keys[j]}
		if j > 0 {
			pk.prev = p.keys[j-1]
		}
		picks = append(picks, pk)
	}
	loop := func(name string, per int, f func(pk pick)) {
		t0 := time.Now()
		for _, pk := range picks {
			f(pk)
		}
		l.res.layer("aggindex."+name, float64(time.Since(t0).Nanoseconds())/float64(per*len(picks)), "ns")
	}
	var sink float64
	loop("add_ns", 1, func(pk pick) { pk.p.term.Add(pk.k+0.5, 1) })
	loop("delete_ns", 1, func(pk pick) { pk.p.term.Delete(pk.k + 0.5) })
	loop("shift_ns", 2, func(pk pick) { pk.p.term.ShiftKeys(pk.prev, 1); pk.p.term.ShiftKeys(pk.prev, -1) })
	loop("getsum_ns", 1, func(pk pick) { sink += pk.p.term.GetSum(pk.k) })

	// The rung itself: per pseudo-event, the operations the range-shift
	// executor issues for one insert at the picked level — shift both
	// indexes above the level, add to both at the level's new key, probe —
	// and, on the next pseudo-event, the delete that undoes it.
	l.flatRung("aggindex", len(picks), func(i int) {
		pk := picks[i/2]
		d := 1.0
		if i%2 == 1 {
			d = -1
		}
		pk.p.cnt.ShiftKeys(pk.prev, d)
		pk.p.term.ShiftKeys(pk.prev, d)
		key := pk.k
		if d > 0 {
			key++
		}
		// After the +1 shift the level's own key is k+1; the insert adds
		// there. The delete finds it back at k after shifting down.
		pk.p.cnt.Add(key, d)
		pk.p.term.Add(key, d)
		v, _ := pk.p.cnt.Get(key)
		sink += v
	})
	_ = sink
	return nil
}

// flatRung times n calls of f in ladderBatch-sized spans.
func (l *ladder) flatRung(rung string, n int, f func(i int)) {
	var total time.Duration
	for i, seq := 0, int64(0); i < n; i, seq = i+ladderBatch, seq+1 {
		end := min(i+ladderBatch, n)
		t0 := time.Now()
		for j := i; j < end; j++ {
			f(j)
		}
		t1 := time.Now()
		l.tr.add(ladderPrefix+rung, t0, t1, -1, seq, end-i)
		total += t1.Sub(t0)
	}
	l.cost[rung] = float64(total.Nanoseconds()) / float64(n)
}

// engine is the bare executors: one engine.New(query 0) per partition, each
// fed its events of a whole chunk in one ApplyAll. That is the size of run a
// shard worker hands a partition under load — it drains its queue, dozens of
// client batches deep, before applying — and the executors' batch paths
// amortise over it, so feeding them client-batch-sized runs would make the
// engine look dearer alone than inside the serving layer.
func (l *ladder) engine() error {
	before := heapAlloc()
	parts := make(map[float64]engine.Executor)
	scratch := make(map[float64][]engine.Event)
	var order []float64
	apply := func(b []engine.Event) error {
		order = order[:0]
		for _, e := range b {
			sym := e.Tuple["sym"]
			if len(scratch[sym]) == 0 {
				order = append(order, sym)
			}
			scratch[sym] = append(scratch[sym], e)
		}
		for _, sym := range order {
			ex := parts[sym]
			if ex == nil {
				var err error
				if ex, err = engine.New(l.q0); err != nil {
					return err
				}
				parts[sym] = ex
			}
			engine.ApplyAll(ex, scratch[sym])
			scratch[sym] = scratch[sym][:0]
		}
		return nil
	}
	in := l.stream()
	if err := in.preload(apply); err != nil {
		return err
	}
	tuples := float64(l.rc.W.Preload)
	l.res.layer("engine.heap_bytes_per_tuple", float64(heapAlloc()-before)/tuples, "bytes")

	// The stream's own boxing is three allocations per event (a tuple is a
	// map header, its group, and the boxed struct is on the slice).
	m0 := mallocs()
	per, err := l.timedBy(ladderChunk, "engine", in, apply, nil)
	if err != nil {
		return err
	}
	boxing := float64(testAllocsPerBox())
	l.res.layer("engine.apply_ns_per_event", per, "ns")
	l.res.layer("engine.allocs_per_event", float64(mallocs()-m0)/float64(l.n)-boxing, "count")

	var snaps []*bytes.Buffer
	t0 := time.Now()
	for _, ex := range parts {
		var buf bytes.Buffer
		if err := ex.(engine.Snapshotter).Snapshot(&buf); err != nil {
			return err
		}
		snaps = append(snaps, &buf)
	}
	// The timed events delete as often as they insert: still P tuples.
	l.res.layer("engine.snapshot_ns_per_tuple", float64(time.Since(t0).Nanoseconds())/tuples, "ns")
	t0 = time.Now()
	for _, buf := range snaps {
		if _, err := engine.Restore(l.q0, bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
	}
	l.res.layer("engine.restore_ns_per_tuple", float64(time.Since(t0).Nanoseconds())/tuples, "ns")
	return nil
}

// testAllocsPerBox measures how many allocations boxing one event costs, so
// they can be taken out of the engine rung's count.
func testAllocsPerBox() float64 {
	const n = 1000
	m0 := mallocs()
	var keep engine.Event
	for i := 0; i < n; i++ {
		keep = Event{Sym: 1, Price: 1, Volume: 1, X: 1}.boxed()
	}
	_ = keep
	return float64(mallocs()-m0) / n
}

// serve is the sharded service without durability.
func (l *ladder) serve() error {
	svc, err := serve.ForQuery(l.q0, []string{"sym"}, serve.Options{Shards: serverShards})
	if err != nil {
		return err
	}
	defer svc.Close()
	in := l.stream()
	if err := in.preload(svc.ApplyBatch); err != nil {
		return err
	}
	if err := svc.Drain(); err != nil {
		return err
	}
	per, err := l.timed("serve", in, svc.ApplyBatch, svc.Drain)
	if err != nil {
		return err
	}
	l.res.layer("serve.apply_ns_per_event", per, "ns")
	const reads = 200
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		svc.ResultGrouped()
	}
	l.res.layer("serve.read_grouped_us", float64(time.Since(t0).Microseconds())/reads, "us")
	t0 = time.Now()
	for i := 0; i < 100*reads; i++ {
		svc.Result()
	}
	l.res.layer("serve.read_scalar_us", float64(time.Since(t0).Nanoseconds())/1e3/(100*reads), "us")
	return nil
}

// newCatalog boots a catalog with the first n registrations, preloaded, and
// returns it with the stream positioned at the timed events.
func (l *ladder) newCatalog(n int, dir string) (*catalog.Service, *stream, time.Duration, error) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: serverShards, Dir: dir})
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	for _, q := range l.rc.W.Queries[:n] {
		if _, _, err := cat.Register(q.SQL()); err != nil {
			cat.Close()
			return nil, nil, 0, err
		}
	}
	reg := time.Since(t0)
	in := l.stream()
	if err := in.preload(cat.ApplyBatch); err != nil {
		cat.Close()
		return nil, nil, 0, err
	}
	return cat, in, reg, cat.DrainAll()
}

func (l *ladder) tempDir(name string) (string, error) {
	dir := filepath.Join(l.rc.WorkDir, fmt.Sprintf("ladder-%d-%s", os.Getpid(), name))
	os.RemoveAll(dir)
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

// catalogs is three rungs: query 0 alone in memory, the same with the shared
// WAL, and every registration with the WAL. The middle one also yields the
// checkpoint and recovery figures.
func (l *ladder) catalogs() error {
	cat, in, reg1, err := l.newCatalog(1, "")
	if err != nil {
		return err
	}
	per, err := l.timed("catalog-1", in, cat.ApplyBatch, cat.DrainAll)
	cat.Close()
	if err != nil {
		return err
	}
	l.res.layer("catalog.apply_ns_per_event", per, "ns")

	dir, err := l.tempDir("wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := l.durable(dir); err != nil {
		return err
	}

	if len(l.rc.W.Queries) == 1 {
		// Query 0 alone is every registration: the rung above is this one.
		l.cost["catalog-all"] = l.cost["catalog-1+wal"]
		l.res.layer("catalog.register_ms", float64(reg1.Microseconds())/1e3, "ms")
		l.res.layer("catalog.state_sets", 1, "count")
		l.res.layer("catalog.probe_lanes", 0, "count")
		return nil
	}
	dirAll, err := l.tempDir("all")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirAll)
	all, in, reg, err := l.newCatalog(len(l.rc.W.Queries), dirAll)
	if err != nil {
		return err
	}
	defer all.Close()
	l.res.layer("catalog.register_ms", float64(reg.Microseconds())/1e3, "ms")
	// Stats and List are both ordered by QueryID. A set's probe lanes are
	// its members' distinct probe plans, once there is more than one.
	sets := map[uint64]map[string]bool{}
	stats := all.Stats()
	for i, ex := range all.List() {
		if sets[stats[i].SetID] == nil {
			sets[stats[i].SetID] = map[string]bool{}
		}
		sets[stats[i].SetID][ex.Probe] = true
	}
	lanes := 0
	for _, probes := range sets {
		if len(probes) > 1 {
			lanes += len(probes)
		}
	}
	l.res.layer("catalog.state_sets", float64(len(sets)), "count")
	l.res.layer("catalog.probe_lanes", float64(lanes), "count")
	_, err = l.timed("catalog-all", in, all.ApplyBatch, all.DrainAll)
	return err
}

// durable is the WAL rung on a one-query catalog, followed by the checkpoint
// and recovery timings: recover once with the timed events as the WAL tail,
// once with an empty tail; the difference is the replay.
func (l *ladder) durable(dir string) error {
	opt := catalog.Options{PartitionBy: []string{"sym"}, Shards: serverShards, Dir: dir}
	cat, in, _, err := l.newCatalog(1, dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := cat.Checkpoint(); err != nil {
		cat.Close()
		return err
	}
	l.res.layer("checkpoint.snapshot_s", time.Since(t0).Seconds(), "s")
	snapMB := dirMB(dir)
	l.res.layer("checkpoint.snapshot_mb", snapMB, "mb")
	_, err = l.timed("catalog-1+wal", in, cat.ApplyBatch, cat.DrainAll)
	if err != nil {
		cat.Close()
		return err
	}
	l.res.layer("checkpoint.wal_bytes_per_event", (dirMB(dir)-snapMB)*(1<<20)/float64(l.n), "bytes")
	if err := cat.Close(); err != nil {
		return err
	}
	recoverOnce := func() (time.Duration, error) {
		t0 := time.Now()
		c, err := catalog.Recover(opt)
		if err != nil {
			return 0, err
		}
		took := time.Since(t0)
		return took, c.Close()
	}
	withTail, err := recoverOnce()
	if err != nil {
		return err
	}
	// Recovery ends with a rotation, so the directory now has an empty tail.
	load, err := recoverOnce()
	if err != nil {
		return err
	}
	l.res.layer("checkpoint.recover_load_s", load.Seconds(), "s")
	l.res.layer("checkpoint.recover_replay_ns_per_event", float64((withTail-load).Nanoseconds())/float64(l.n), "ns")
	return nil
}

// wire is the last two rungs: the full catalog behind an in-process wire
// server on loopback, driven through the pipelined client, without and then
// with the workload's push subscribers attached.
func (l *ladder) wire() error {
	l.codec()
	for _, rung := range []string{"wire", "wire+subs"} {
		if err := l.wireRung(rung, rung == "wire+subs"); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) wireRung(rung string, withSubs bool) error {
	dir, err := l.tempDir(rung)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cat, in, _, err := l.newCatalog(len(l.rc.W.Queries), dir)
	if err != nil {
		return err
	}
	defer cat.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{
		Conns: 1, BatchSize: clientBatchSize, MaxInFlight: clientMaxInFlight, FlushInterval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	type subCount struct{ frames, bytes int64 }
	counts := make(chan subCount, l.rc.W.PushSubs)
	subs := 0
	if withSubs {
		for i := 0; i < l.rc.W.PushSubs; i++ {
			sub, err := c.SubscribeQuery(query0, client.SubOptions{Buffer: 64})
			if err != nil {
				return err
			}
			subs++
			go func() {
				var n subCount
				var buf []byte
				for f := range sub.Frames() {
					buf = wire.EncodeDeltaQ(buf[:0], query0, f)
					n.frames++
					n.bytes += int64(len(buf))
				}
				counts <- n
			}()
			defer sub.Close()
		}
	}
	apply := func(b []engine.Event) error {
		for _, e := range b {
			if err := c.Apply(e); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := l.timed(rung, in, apply, c.Drain); err != nil {
		return err
	}
	if withSubs {
		c.Close() // ends the subscriptions, which report their counts
		var total subCount
		for i := 0; i < subs; i++ {
			n := <-counts
			total.frames += n.frames
			total.bytes += n.bytes
		}
		l.res.layer("wire.delta_bytes_per_frame", float64(total.bytes)/float64(max(1, total.frames)), "bytes")
	}
	return nil
}

// codec times the wire encoding of the timed events on its own: the client's
// per-event encode and the server's per-batch decode.
func (l *ladder) codec() {
	in := l.stream()
	var ev []byte
	var dec engine.EventDecoder
	var encode, decode time.Duration
	var size int
	for left := l.n; left > 0; left -= ladderBatch {
		b := in.batch(min(left, ladderBatch), in.g.Next)
		t0 := time.Now()
		body := wire.AppendBatchHeader(nil, 1, uint32(len(b)))
		for _, e := range b {
			ev = engine.EncodeEvent(ev[:0], e)
			body = wire.AppendBatchEvent(body, ev)
		}
		t1 := time.Now()
		_, raw, err := wire.DecodeBatch(body)
		if err != nil {
			panic(err) // a body this function just encoded
		}
		for _, p := range raw {
			if _, err := dec.Decode(p); err != nil {
				panic(err)
			}
		}
		encode += t1.Sub(t0)
		decode += time.Since(t1)
		size += len(body)
	}
	n := float64(l.n)
	l.res.layer("wire.encode_ns_per_event", float64(encode.Nanoseconds())/n, "ns")
	l.res.layer("wire.decode_ns_per_event", float64(decode.Nanoseconds())/n, "ns")
	l.res.layer("wire.bytes_per_event", float64(size)/n, "bytes")
}
