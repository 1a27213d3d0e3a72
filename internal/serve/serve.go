// Package serve is the sharded concurrent serving layer over the engine's
// incremental executors: the substrate that turns one query plan — the
// single-threaded RPAI machinery engine.New derives from SQL — into a
// streaming service consuming batched deltas under concurrent reads, the
// execution model DBToaster-style higher-order IVM and DBSP frame for
// incremental maintenance.
//
// The design is share-nothing. Engine events are partitioned by the values of
// named tuple columns (for example an instrument symbol, a broker id, or a
// TPC-H order key); partitions are assigned to N shards by key hash, and each
// shard is one worker goroutine owning one engine executor per partition.
// Events enter only through ApplyBatch. A shard drains its buffered input
// channel in batches: it hands every touched partition its run of the batch
// through the executor's ApplyBatch, refreshes the results of the partitions
// the batch touched, and then publishes an immutable snapshot of all its
// partition results through an atomic pointer. A snapshot is an ordered view:
// a copy of the shard's value column over its shared, append-only key table,
// plus the shard's slots in key order, so publication costs eight
// pointer-free bytes per partition and a grouped read is a k-way merge of the
// shards' ordered views with no sort. Readers therefore never take a lock and
// never block a writer: Result and ResultGrouped read the last published
// snapshots, which lag the input by at most one batch per shard (call Drain
// for a barrier).
//
// Semantics: the served query is evaluated independently per partition, as if
// each partition key had its own relation. Result returns the sum over
// partitions and ResultGrouped the per-partition values, so for queries whose
// correlated subqueries bind on the partition key (for example TPC-H Q18
// grouped by order key) the served output coincides with the global grouped
// query; for per-instrument queries such as VWAP it is the usual
// one-executor-per-symbol serving deployment. The output is invariant to the
// shard count — the property the differential tests in this package check.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// ErrClosed is returned by ApplyBatch, Drain, Checkpoint, Subscribe and Close
// itself once the service has been closed. Every public entry point that
// needs a live service reports the closed state this way; callers can test
// for it with errors.Is.
var ErrClosed = errors.New("serve: service is closed")

// Options configures ForQuery and RecoverForQuery; the zero value selects
// every default. Negative values are rejected (see Validate).
type Options struct {
	// Shards is the number of worker goroutines (0 selects 1). Partitions are
	// assigned to shards by key hash, so the same key always lands on the
	// same shard and per-partition event order is preserved.
	Shards int
	// QueueLen is the per-shard input channel buffer in queue items — one
	// ApplyBatch call's share of a shard is one item (0 selects 1024).
	QueueLen int
	// BatchSize bounds how many queued events a shard drains into one batch
	// before it applies them and publishes a snapshot (0 selects 64). Larger
	// batches amortize executor dispatch and snapshot publication; smaller
	// ones tighten read freshness. The effective value is surfaced per shard
	// in ShardStats.BatchSize.
	BatchSize int
}

// Validate rejects negative fields. The constructors call it, and so does
// the catalog before it touches its data directory, so a bad option fails at
// construction rather than at the first registration.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Shards", o.Shards}, {"QueueLen", o.QueueLen}, {"BatchSize", o.BatchSize}} {
		if f.v < 0 {
			return fmt.Errorf("serve: Options.%s must not be negative (got %d)", f.name, f.v)
		}
	}
	return nil
}

// plan is the per-partition executor recipe, validated once by newPlan so
// that building a partition's executor cannot fail afterwards. exec is the
// query every partition runs; when the served query carries one bare
// partition-column conjunct, exec is its shareable base and gate the residual
// (gate.Residual set): partitions the conjunct excludes are gated to 0 — the
// same read the catalog serves for such a query as a residual probe lane, so
// a dedicated service and a shared lane stay bit-identical. Snapshots persist
// only the base state; the gate is configuration, re-derived from the key.
type plan struct {
	exec *query.Query
	cols []string
	gate engine.ProbeSpec
}

func newPlan(q *query.Query, partitionBy []string) (*plan, error) {
	if len(partitionBy) == 0 {
		return nil, errors.New("serve: ForQuery requires at least one partition column")
	}
	if q.Outer == query.Avg {
		// A partitioned service composes its scalar result by summing the
		// partitions, and an average is not sum-decomposable. AVG queries are
		// served as probe lanes (raw sum/count pairs finished at the read
		// boundary) — register them against a catalog instead.
		return nil, errors.New("serve: top-level AVG is not sum-decomposable across partitions; register it against a catalog, which serves it as a probe lane")
	}
	pl := &plan{exec: q, cols: partitionBy}
	if base, spec, ok := engine.SplitResidual(q, partitionBy); ok {
		pl.exec, pl.gate = base, spec
	}
	ex, err := engine.New(pl.exec)
	if err != nil {
		return nil, err
	}
	if _, err := pl.partitionExec(ex, nil); err != nil {
		return nil, err
	}
	return pl, nil
}

// partitionExec finishes an executor (fresh or restored) for the partition
// keyed key: gated on the key when the plan carries a residual conjunct.
// ApplyBatch is the only way a shard worker feeds an executor, and every
// single-relation engine executor has one.
func (pl *plan) partitionExec(ex engine.Executor, key []float64) (engine.BatchExecutor, error) {
	if pl.gate.Residual {
		ex = engine.NewGated(ex, pl.gate.GateOn(pl.cols, key))
	}
	b, ok := ex.(engine.BatchExecutor)
	if !ok {
		return nil, fmt.Errorf("serve: executor %T has no ApplyBatch", ex)
	}
	return b, nil
}

// newExec builds a fresh executor for the partition keyed key.
func (pl *plan) newExec(key []float64) engine.BatchExecutor {
	ex, err := engine.New(pl.exec)
	if err == nil {
		var b engine.BatchExecutor
		if b, err = pl.partitionExec(ex, key); err == nil {
			return b
		}
	}
	// Unreachable: newPlan built the same executor successfully.
	panic("serve: " + err.Error())
}

// item is one queue entry: a pre-routed batch of events, a drain barrier
// when sync is set, or a control request when ctl is set. Control requests
// run on the shard's worker goroutine, giving them exclusive access to the
// shard state without locks.
type item struct {
	batch *batchBox
	sync  chan<- struct{}
	ctl   *ctl
}

// batchBox carries one shard's slice of an ApplyBatch call through the queue.
// Boxes are pooled: the worker returns them after unpacking, so steady-state
// batch ingest reuses the same backing arrays.
type batchBox struct {
	events []engine.Event
}

// ctl is a control request executed inline by a shard worker (snapshot
// export, restore installation, lane changes). The worker sends fn's error on
// done.
type ctl struct {
	fn   func(ws *workerState) error
	done chan<- error
}

// workerState is the state a shard worker owns exclusively: its partitions
// and publication counters. Control requests mutate it between batches.
type workerState struct {
	idx      int
	partCols []string // the partition columns (residual gate evaluation)
	parts    map[string]*partition
	// plist is the partition list in slot (creation) order, and keys and
	// vals are its published columns: keys[slot] is the partition's key and
	// vals[slot] its base result (p.last). keys is append-only and shared
	// with snapshots by prefix (keys[:n:n]) — keys are immutable and
	// partitions are never deleted — so a commit copies only vals: eight
	// bytes per partition, no pointers for the collector to scan. order is
	// the slots in key order (engine.CompareKeys); a commit that creates
	// partitions replaces it with a new slice, so published snapshots keep
	// theirs.
	plist []*partition
	keys  [][]float64
	vals  []float64
	order []int32
	// runs are the current publication's shared subscriber delta runs (see
	// publishSubs), reset after every publication.
	runs []subRun
	// version counts this shard's snapshot publications: every commit bumps
	// it, so it is the monotonic version readers and subscribers key on.
	version uint64
	// lastChange is the newest version whose commit actually changed state
	// (touched partitions or a wholesale swap). A subscriber resuming from
	// version v >= lastChange is provably current — every later commit was
	// empty — so no reseed frame is needed.
	lastChange uint64
	// subs are the subscriber slots registered on this shard; commit merges
	// each publication's delta into every slot (see subscribe.go).
	subs []*subShard
	// publishFull makes the next commit offer subscribers the full partition
	// set instead of the dirty delta — set after a lane change (SetProbes),
	// where the previous published state is no longer a valid delta base.
	publishFull bool
	// specs are the installed probe lanes in canonical order (see SetProbes);
	// empty disables the lane read path. hasAvg notes whether any lane needs
	// the count side (AVG lanes publish raw sum/count pairs).
	specs  []engine.ProbeSpec
	hasAvg bool
}

// partition is one partition owned by a shard: its executor plus the cached
// result the snapshots are built from. pend buffers the current batch's
// events for this partition so the whole run is handed to the executor's
// ApplyBatch in one call.
type partition struct {
	vals    []float64 // partition key values (immutable, shared with snapshots)
	ekey    string    // canonical byte encoding of vals (subscriber filter key)
	ex      engine.BatchExecutor
	probeEx engine.ProbeExecutor // ex's probe-lane path, nil if it has none
	pend    []engine.Event       // events buffered for the in-progress batch
	last    float64
	// fan/fanCnt are the per-lane results, parallel to the worker's specs:
	// final values for SUM/COUNT lanes, raw (term sum, count) pairs for AVG
	// lanes. gate holds each lane's residual verdict for this partition's
	// key; gated-off lanes are zeroed after every refresh so they contribute
	// nothing to lane totals — exactly a dedicated executor's 0 result for a
	// partition its residual conjunct excludes.
	fan    []float64
	fanCnt []float64
	gate   []bool
	dirty  bool
	slot   int // index into the owning worker's plist/keys/vals
}

// refreshLanes re-evaluates every installed lane against this partition's
// executor and applies the residual gates.
func (p *partition) refreshLanes(ws *workerState) {
	if len(ws.specs) == 0 || p.probeEx == nil {
		return
	}
	p.probeEx.ResultProbe(ws.specs, p.fan, p.fanCnt)
	for i, on := range p.gate {
		if !on {
			p.fan[i] = 0
			p.fanCnt[i] = 0
		}
	}
}

// addPartition registers p in the worker's map and slot list, appending its
// row to the published key and value columns. The next commit merges the new
// slot into the key order.
func (ws *workerState) addPartition(p *partition) {
	p.slot = len(ws.plist)
	ws.parts[p.ekey] = p
	ws.plist = append(ws.plist, p)
	ws.keys = append(ws.keys, p.vals)
	ws.vals = append(ws.vals, p.last)
	if len(ws.specs) > 0 && p.probeEx != nil {
		// Seed the lane results so partitions installed outside the dirty
		// path (snapshot restore) publish correct lanes.
		ws.sizeLanes(p)
		p.refreshLanes(ws)
	}
}

// sizeLanes sizes p's lane buffers to the installed spec count and evaluates
// the partition's residual gates.
func (ws *workerState) sizeLanes(p *partition) {
	k := len(ws.specs)
	p.fan = sizedFloats(p.fan, k)
	p.fanCnt = sizedFloats(p.fanCnt, k)
	if cap(p.gate) < k {
		p.gate = make([]bool, k)
	} else {
		p.gate = p.gate[:k]
	}
	for i, sp := range ws.specs {
		p.gate[i] = sp.GateOn(ws.partCols, p.vals)
	}
}

// extendOrder merges the slots created since the last commit into the key
// order. It builds a new slice — published snapshots keep the old one — so
// only commits that create partitions pay for it.
func (ws *workerState) extendOrder() {
	old := ws.order
	fresh := make([]int32, 0, len(ws.plist)-len(old))
	for slot := len(old); slot < len(ws.plist); slot++ {
		fresh = append(fresh, int32(slot))
	}
	byKey := func(a, b int32) int { return engine.CompareKeys(ws.keys[a], ws.keys[b]) }
	slices.SortFunc(fresh, byKey)
	out := make([]int32, 0, len(ws.plist))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if byKey(fresh[j], old[i]) < 0 {
			out = append(out, fresh[j])
			j++
		} else {
			out = append(out, old[i])
			i++
		}
	}
	ws.order = append(append(out, old[i:]...), fresh[j:]...)
}

// snapshot builds the publication for ws.version. A commit that changed
// nothing (no dirty partition, no lane change, no new partition) reuses the
// previous snapshot's columns outright; any other copies the value column
// (and the lane matrices when lanes are installed) and shares the key table
// and key order. Total is the slot-order sum, deterministic run to run.
func (ws *workerState) snapshot(prev *Snapshot, changed bool) *Snapshot {
	n := len(ws.plist)
	if len(ws.order) != n {
		ws.extendOrder()
		changed = true
	}
	if !changed && !ws.publishFull {
		snap := *prev
		snap.Version = ws.version
		return &snap
	}
	snap := &Snapshot{Version: ws.version, Keys: ws.keys[:n:n], Order: ws.order,
		Vals: append(make([]float64, 0, n), ws.vals...)}
	var total float64
	for _, v := range snap.Vals {
		total += v
	}
	snap.Total = total
	if k := len(ws.specs); k > 0 {
		snap.Probes = ws.specs
		snap.FanVals = laneMatrix(ws, false)
		snap.FanTotals = laneTotals(snap.FanVals, k, n)
		if ws.hasAvg {
			snap.FanCnts = laneMatrix(ws, true)
			snap.FanCntTotals = laneTotals(snap.FanCnts, k, n)
		}
	}
	return snap
}

// laneMatrix clones the workers' per-partition lane rows (the value side, or
// the count side for AVG lanes) into one slot-major immutable matrix.
func laneMatrix(ws *workerState, cntSide bool) []float64 {
	k := len(ws.specs)
	m := make([]float64, len(ws.plist)*k)
	for _, p := range ws.plist {
		row := p.fan
		if cntSide {
			row = p.fanCnt
		}
		copy(m[p.slot*k:(p.slot+1)*k], row)
	}
	return m
}

// laneTotals sums each lane over all partition slots in slot order — the
// same summation order Snapshot.Total uses.
func laneTotals(m []float64, k, slots int) []float64 {
	t := make([]float64, k)
	for lane := 0; lane < k; lane++ {
		var v float64
		for slot := 0; slot < slots; slot++ {
			v += m[slot*k+lane]
		}
		t[lane] = v
	}
	return t
}

func sizedFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// newPartition wraps an executor, capturing its probe-lane path once so the
// refresh loop dispatches without a per-batch type assertion.
func newPartition(vals []float64, ex engine.BatchExecutor) *partition {
	p := &partition{vals: vals, ex: ex}
	p.probeEx, _ = ex.(engine.ProbeExecutor)
	return p
}

// Snapshot is one shard's published state, an ordered view of the
// per-partition results as of the shard's last batch flush. Keys and Vals
// are the partition columns by slot (partition i has key Keys[i] and result
// Vals[i]); Order lists the slots in key order (engine.CompareKeys). Every
// slice is immutable: Keys is a prefix of the shard's append-only key table
// and Order is replaced, never edited, when partitions are created. Total is
// the sum of Vals in slot order. Version is the shard's monotonic
// publication counter: it increases by at least one between any two distinct
// published snapshots, so readers comparing versions can order their
// observations.
type Snapshot struct {
	Version uint64
	Total   float64
	Keys    [][]float64
	Vals    []float64
	Order   []int32
	// Probe lanes (empty unless SetProbes installed them): Probes are the
	// lane specs in canonical order, FanVals the per-partition per-lane
	// results laid out slot-major (partition slot i, lane l at
	// FanVals[i*K+l], rows parallel to Vals), and FanTotals the per-lane
	// sums over all partitions in slot order — the same summation order
	// Total uses, so each lane's total is bit-identical to a dedicated
	// service's Total. AVG lanes carry raw (term sum, count) pairs: FanCnts
	// and FanCntTotals hold the count side (nil when no lane needs it), and
	// readers finish the quotient via engine.FinishProbe.
	Probes       []engine.ProbeSpec
	FanVals      []float64
	FanTotals    []float64
	FanCnts      []float64
	FanCntTotals []float64
}

// ShardStats are the per-shard serving counters.
type ShardStats struct {
	Shard      int    // shard index
	Applied    uint64 // events applied
	Flushed    uint64 // batches flushed (snapshot publications)
	QueueDepth int    // queue items currently buffered in the input channel
	Partitions int    // partitions owned
	// EnqueueWaitNS is the cumulative nanoseconds ApplyBatch callers spent
	// blocked on this shard's full queue — the backpressure admission control
	// reacts to, surfaced end to end through the wire protocol's stats RPC.
	EnqueueWaitNS uint64
	// BatchSize is the shard's effective drain bound: Options.BatchSize after
	// defaulting (64 when the options left it zero).
	BatchSize int
}

type shard struct {
	idx int
	in  chan item
	// snap is the read-side hot word: every Result/ResultGrouped call loads
	// it. The pads keep it off the cache lines of the writer-side counters
	// below (and of the neighboring shard structs), so cross-core readers do
	// not false-share with producers hammering the counters.
	_    [64]byte
	snap atomic.Pointer[Snapshot]
	_    [64]byte
	// applied and flushed are written by the worker goroutine, waitNS by
	// producers. A line of separation between the two groups keeps producer
	// stalls from invalidating the worker's line.
	applied    atomic.Uint64
	flushed    atomic.Uint64
	partitions atomic.Int64
	_          [64]byte
	waitNS     atomic.Uint64
}

// Service is the sharded serving layer. ApplyBatch may be called from any
// number of goroutines; Result, ResultGrouped and Stats are safe
// concurrently with writers and never block them.
type Service struct {
	opt    Options // defaults applied
	plan   *plan
	shards []*shard

	// batchPool recycles the boxes ApplyBatch ships batches in; workers
	// return them after unpacking.
	batchPool sync.Pool

	mu     sync.RWMutex // guards closed vs. in-flight ApplyBatch/Drain sends
	closed bool
	wg     sync.WaitGroup

	// epoch identifies this service instance for subscription resume: version
	// counters restart at zero on every boot, so a resume request is honored
	// only when its epoch matches (see Subscribe).
	epoch uint64

	subMu sync.Mutex // guards subs and subsClosed
	subs  map[*Subscription]struct{}
	// subsClosed is set by Close when it collects the live subscriptions to
	// finalize; a Subscribe that records its subscription afterwards fails
	// with ErrClosed instead of leaking a subscription nobody closes.
	subsClosed bool
}

// ForQuery builds a service that maintains q independently per partition,
// partitioning engine events by the given tuple columns. Each partition gets
// its own executor from engine.New (so eligible queries use the aggregate-
// index strategy per partition). The query is validated and planned once up
// front; per-partition construction cannot fail afterwards. The service can
// always Checkpoint, and RecoverForQuery reopens what it exported.
func ForQuery(q *query.Query, partitionBy []string, opt Options) (*Service, error) {
	pl, err := newPlan(q, partitionBy)
	if err != nil {
		return nil, err
	}
	return start(pl, opt)
}

// start validates opt, applies its defaults, and starts the shard workers.
func start(pl *plan, opt Options) (*Service, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	if opt.QueueLen == 0 {
		opt.QueueLen = 1024
	}
	if opt.BatchSize == 0 {
		opt.BatchSize = 64
	}
	s := &Service{opt: opt, plan: pl, shards: make([]*shard, opt.Shards),
		epoch: newEpoch(), subs: make(map[*Subscription]struct{})}
	for i := range s.shards {
		sh := &shard{idx: i, in: make(chan item, opt.QueueLen)}
		sh.snap.Store(&Snapshot{})
		s.shards[i] = sh
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.run(sh)
	}
	return s, nil
}

// normalizeVals canonicalizes the key columns in place so that values that
// compare equal (or are all "not a number") share one bit pattern: -0 becomes
// +0 and every NaN payload becomes the canonical quiet NaN. Without this,
// hashVals and encodeKey would treat -0 and +0 (or two NaN variants) as
// distinct partition keys and one logical partition could land on two shards.
func normalizeVals(vals []float64) []float64 {
	for i, v := range vals {
		if v == 0 {
			vals[i] = 0 // collapses -0 onto +0
		} else if math.IsNaN(v) {
			vals[i] = math.NaN() // canonical quiet NaN payload
		}
	}
	return vals
}

// hashVals is FNV-1a over the IEEE-754 bits of the key columns: deterministic
// across runs, so benchmark shard assignments are reproducible. Callers pass
// normalized keys (see normalizeVals).
func hashVals(vals []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vals {
		b := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= (b >> i) & 0xff
			h *= prime
		}
	}
	return h
}

// encodeKey appends the canonical byte encoding of the (normalized) key
// columns to b.
func encodeKey(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// key appends e's normalized partition key to buf (append-style, so
// steady-state routing does not allocate). A tuple missing a partition
// column reads it as 0.
func (s *Service) key(e engine.Event, buf []float64) []float64 {
	for _, c := range s.plan.cols {
		buf = append(buf, e.Tuple[c])
	}
	return normalizeVals(buf)
}

// send enqueues it on sh, accounting backpressure stalls: the fast path is a
// non-blocking send, and only the full-queue path reads the clock.
func (s *Service) send(sh *shard, it item) {
	select {
	case sh.in <- it:
	default:
		start := time.Now()
		sh.in <- it
		sh.waitNS.Add(uint64(time.Since(start)))
	}
}

// ApplyBatch routes a whole batch in one pass: events are split by owning
// shard into pooled boxes (copied, so the caller may reuse its slice — the
// wire server decodes batches into per-connection scratch) and each shard
// receives its run as a single queue item, which its worker unpacks straight
// into the partitions' pending buffers. Per-partition event order is the
// slice order. It blocks when a shard queue is full (natural backpressure,
// accounted in the shard's EnqueueWaitNS counter) and returns ErrClosed
// after Close.
func (s *Service) ApplyBatch(events []engine.Event) error {
	if len(events) == 0 {
		return nil
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if len(s.shards) == 1 {
		box := s.getBox()
		box.events = append(box.events, events...)
		s.send(s.shards[0], item{batch: box})
		s.mu.RUnlock()
		return nil
	}
	boxes := make([]*batchBox, len(s.shards))
	var kb [4]float64
	for i := range events {
		idx := hashVals(s.key(events[i], kb[:0])) % uint64(len(s.shards))
		b := boxes[idx]
		if b == nil {
			b = s.getBox()
			boxes[idx] = b
		}
		b.events = append(b.events, events[i])
	}
	for i, b := range boxes {
		if b != nil {
			s.send(s.shards[i], item{batch: b})
		}
	}
	s.mu.RUnlock()
	return nil
}

// getBox returns an empty pooled batch box.
func (s *Service) getBox() *batchBox {
	if b, ok := s.batchPool.Get().(*batchBox); ok {
		b.events = b.events[:0]
		return b
	}
	return &batchBox{}
}

// run is the shard worker: drain a batch, buffer its events per partition,
// hand each touched partition its run via ApplyBatch, refresh the touched
// partitions, publish the snapshot, release any drain barriers — in that
// order, so a released Drain implies the acknowledged events are readable.
// Control requests and drain barriers terminate the in-progress batch: the
// worker commits everything queued before them, then serves them, preserving
// the FIFO semantics snapshot export and restore rely on.
func (s *Service) run(sh *shard) {
	defer s.wg.Done()
	ws := &workerState{idx: sh.idx, partCols: s.plan.cols,
		parts: make(map[string]*partition)}
	var (
		dirty   []*partition
		syncs   []chan<- struct{}
		keyBuf  []float64
		byteBuf []byte
	)
	enqueue := func(e engine.Event) {
		keyBuf = s.key(e, keyBuf[:0])
		byteBuf = encodeKey(byteBuf[:0], keyBuf)
		p, ok := ws.parts[string(byteBuf)] // no alloc: compiler-optimized map access
		if !ok {
			vals := append([]float64(nil), keyBuf...)
			p = newPartition(vals, s.plan.newExec(vals))
			p.ekey = string(byteBuf)
			ws.addPartition(p)
			sh.partitions.Store(int64(len(ws.parts)))
		}
		p.pend = append(p.pend, e)
		if !p.dirty {
			p.dirty = true
			dirty = append(dirty, p)
		}
	}
	// commit applies the drained batch and publishes the snapshot.
	commit := func() {
		for _, p := range dirty {
			p.ex.ApplyBatch(p.pend)
			// Applied events are not kept alive by the reused buffer.
			clear(p.pend)
			p.pend = p.pend[:0]
			p.last = p.ex.Result()
			ws.vals[p.slot] = p.last
			p.refreshLanes(ws)
			p.dirty = false
		}
		ws.version++
		if len(dirty) > 0 || ws.publishFull {
			ws.lastChange = ws.version
		}
		sh.snap.Store(ws.snapshot(sh.snap.Load(), len(dirty) > 0))
		sh.flushed.Add(1)
		if len(ws.subs) > 0 || ws.publishFull {
			s.publishSubs(ws, dirty)
		}
		dirty = dirty[:0]
	}
	for it := range sh.in {
		n, stop := 0, false
		handle := func(it item) {
			switch {
			case it.ctl != nil:
				// Commit queued work first so the control request observes
				// (and snapshots) fully applied state, then stop: the next
				// loop iteration starts a fresh batch.
				commit()
				it.ctl.done <- it.ctl.fn(ws)
				stop = true
			case it.sync != nil:
				syncs = append(syncs, it.sync)
				stop = true
			default:
				for i := range it.batch.events {
					enqueue(it.batch.events[i])
				}
				n += len(it.batch.events)
				sh.applied.Add(uint64(len(it.batch.events)))
				clear(it.batch.events)
				s.batchPool.Put(it.batch)
			}
		}
		handle(it)
	drain:
		for !stop && n < s.opt.BatchSize {
			select {
			case it2, ok := <-sh.in:
				if !ok {
					break drain
				}
				handle(it2)
			default:
				break drain
			}
		}
		commit()
		for _, c := range syncs {
			close(c)
		}
		syncs = syncs[:0]
	}
}

// Result returns the sum of all partition results as of each shard's last
// published snapshot.
func (s *Service) Result() float64 {
	var total float64
	for _, sh := range s.shards {
		total += sh.snap.Load().Total
	}
	return total
}

// ResultGrouped returns the per-partition results as of each shard's last
// published snapshot, sorted by partition key (engine.CompareKeys, the
// engine.GroupedExecutor ordering).
func (s *Service) ResultGrouped() []engine.GroupResult {
	snaps, n := s.loadSnapshots()
	out := make([]engine.GroupResult, 0, n)
	mergeSnapshots(snaps, func(i int, slot int32) {
		out = append(out, engine.GroupResult{Key: snaps[i].Keys[slot], Value: snaps[i].Vals[slot]})
	})
	return out
}

// loadSnapshots loads every shard's current snapshot and counts their
// partitions.
func (s *Service) loadSnapshots() ([]*Snapshot, int) {
	snaps := make([]*Snapshot, len(s.shards))
	n := 0
	for i, sh := range s.shards {
		snaps[i] = sh.snap.Load()
		n += len(snaps[i].Order)
	}
	return snaps, n
}

// mergeSnapshots visits every partition of snaps in key order, as (index
// into snaps, slot): a k-way merge of the shards' ordered views. A key lives
// on exactly one shard, so the views never tie.
func mergeSnapshots(snaps []*Snapshot, visit func(i int, slot int32)) {
	pos := make([]int, len(snaps))
	for {
		best := -1
		var bestKey []float64
		for i, sn := range snaps {
			if pos[i] == len(sn.Order) {
				continue
			}
			if k := sn.Keys[sn.Order[pos[i]]]; best < 0 || engine.CompareKeys(k, bestKey) < 0 {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return
		}
		visit(best, snaps[best].Order[pos[best]])
		pos[best]++
	}
}

// ShardVersions returns each shard's current snapshot version: the read
// version of the service. Each shard's version only grows, every publication
// bumps its shard's, and a write acknowledged by Drain is visible to any read
// observing versions at least as large as the post-Drain ones. Subscription
// resume is keyed on it too.
func (s *Service) ShardVersions() []ShardVersion {
	out := make([]ShardVersion, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardVersion{Shard: i, Version: sh.snap.Load().Version}
	}
	return out
}

// Epoch identifies this service instance: shard versions are only comparable
// within one epoch, so subscription resume sends the epoch alongside the
// versions and the service falls back to a full reseed on mismatch.
func (s *Service) Epoch() uint64 { return s.epoch }

// Subscribers reports the number of live subscriptions attached to the
// service — the per-query fan-out counter the catalog surfaces in stats.
func (s *Service) Subscribers() int {
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	return n
}

// Stats returns the per-shard serving counters.
func (s *Service) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:         i,
			Applied:       sh.applied.Load(),
			Flushed:       sh.flushed.Load(),
			QueueDepth:    len(sh.in),
			Partitions:    int(sh.partitions.Load()),
			EnqueueWaitNS: sh.waitNS.Load(),
			BatchSize:     s.opt.BatchSize,
		}
	}
	return out
}

// Drain blocks until every event sent before the call has been applied and
// reflected in the published snapshots (a read barrier for tests, benchmarks
// and consistent point-in-time reads).
func (s *Service) Drain() error {
	dones := make([]chan struct{}, len(s.shards))
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	for i, sh := range s.shards {
		done := make(chan struct{})
		dones[i] = done
		sh.in <- item{sync: done}
	}
	s.mu.RUnlock()
	for _, done := range dones {
		<-done
	}
	return nil
}

// Close stops accepting events, drains every queue, publishes the final
// snapshots, waits for the shard workers to exit, and closes every live
// subscription. It is idempotent only in the sense that a second call
// returns ErrClosed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Finalize live subscriptions so their Frames channels close; collect
	// first, since Close detaches under subMu.
	s.subMu.Lock()
	s.subsClosed = true
	live := make([]*Subscription, 0, len(s.subs))
	for sub := range s.subs {
		live = append(live, sub)
	}
	s.subMu.Unlock()
	for _, sub := range live {
		sub.Close()
	}
	return nil
}
