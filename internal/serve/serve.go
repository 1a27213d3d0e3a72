// Package serve is the sharded concurrent serving layer over the incremental
// executors: the substrate that turns the single-threaded RPAI machinery into
// a streaming service consuming batched deltas under concurrent reads, the
// execution model DBToaster-style higher-order IVM and DBSP frame for
// incremental maintenance.
//
// The design is share-nothing. The event stream is partitioned by a
// user-supplied partition key (for example an instrument symbol, a broker id,
// or a TPC-H order key); partitions are assigned to N shards by key hash, and
// each shard is one worker goroutine owning one incremental executor per
// partition. A shard drains its buffered input channel in batches: it applies
// every event of the batch to the owning partition's executor, refreshes the
// results of the partitions the batch touched, and then publishes an
// immutable snapshot of all its partition results through an atomic pointer.
// Readers therefore never take a lock and never block a writer: Result and
// ResultGrouped read the last published snapshots, which lag the input by at
// most one batch per shard (call Drain for a barrier).
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
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/engine"
)

// ErrClosed is returned by Apply, Drain, Checkpoint and Close itself once the
// service has been closed. Every public entry point that needs a live service
// reports the closed state this way; callers can test for it with errors.Is.
var ErrClosed = errors.New("serve: service is closed")

// ErrBusy is returned by TryApply when the owning shard's queue is full. It is
// the serving layer's load-shed signal: callers that must not block (the wire
// server's non-batched fast path, for example) surface it to the client
// instead of queueing unboundedly.
var ErrBusy = errors.New("serve: shard queue full")

// Executor is the per-partition maintained state: the subset of
// engine.Executor (and of the hand-written query executors in package
// queries) the serving layer needs.
type Executor[E any] interface {
	// Apply processes one event.
	Apply(e E)
	// Result returns the current query output for this partition.
	Result() float64
}

// BatchExecutor is an Executor with a native bulk path (engine.BatchExecutor
// seen through the serving layer's event type). ApplyBatch must leave exactly
// the state an Apply loop over the same events leaves — shard workers hand
// each partition its drained events in one call, so an implementation that
// reordered float operations would change served results.
type BatchExecutor[E any] interface {
	Executor[E]
	// ApplyBatch processes events in order as one batch.
	ApplyBatch(events []E)
}

// Config parameterizes a Service.
type Config[E any] struct {
	// Shards is the number of worker goroutines (default 1). Partitions are
	// assigned to shards by key hash, so the same key always lands on the
	// same shard and per-partition event order is preserved.
	Shards int
	// QueueLen is the per-shard input channel buffer (default 1024 events).
	QueueLen int
	// BatchSize bounds how many queued events a shard drains into one batch
	// before it applies them and republishes its snapshot. The zero value
	// selects the default of 64; negative values are rejected by New. Larger
	// batches amortize executor dispatch and snapshot publication; smaller
	// ones tighten read freshness.
	// The effective value is surfaced per shard in ShardStats.BatchSize.
	BatchSize int
	// Partition appends the event's partition key columns to buf and returns
	// the extended slice (append-style, so steady-state routing does not
	// allocate). It must be pure: the same event must always yield the same
	// key.
	Partition func(e E, buf []float64) []float64
	// PartitionCols names the key columns Partition extracts, in order. It is
	// only required for probe lanes with residual conjuncts (SetProbes): a
	// residual gate compares one named key column against a constant per
	// partition.
	PartitionCols []string
	// New constructs the executor for a new partition key.
	New func(key []float64) Executor[E]
	// Durable enables snapshot export and restore (nil disables both).
	Durable *Durable[E]
}

// Durable says how partition executors are snapshotted and restored, which
// is all Checkpoint and Recover need. The service keeps no log of its own:
// the catalog's shared WAL is the only one (see catalog/durable.go).
type Durable[E any] struct {
	// Snapshot writes one partition executor's state to w.
	Snapshot func(w io.Writer, key []float64, ex Executor[E]) error
	// Restore rebuilds one partition executor from a Snapshot stream.
	Restore func(r io.Reader, key []float64) (Executor[E], error)
}

// item is one queue entry: an event, a whole pre-routed batch of events when
// batch is set, a drain barrier when sync is set, or a control request when
// ctl is set. Control requests run on the shard's worker goroutine, giving
// them exclusive access to the shard state without locks.
type item[E any] struct {
	ev    E
	batch *batchBox[E]
	sync  chan<- struct{}
	ctl   *ctl[E]
}

// batchBox carries one shard's slice of an ApplyBatch call through the queue.
// Boxes are pooled: the worker returns them after unpacking, so steady-state
// batch ingest reuses the same backing arrays.
type batchBox[E any] struct {
	events []E
}

// ctl is a control request executed inline by a shard worker (snapshot
// export, restore installation, lane changes). The worker sends fn's error on
// done.
type ctl[E any] struct {
	fn   func(ws *workerState[E]) error
	done chan<- error
}

// workerState is the state a shard worker owns exclusively: its partitions
// and publication counters. Control requests mutate it between batches.
type workerState[E any] struct {
	idx      int
	partCols []string // Config.PartitionCols (residual gate evaluation)
	parts    map[string]*partition[E]
	// plist is the insertion-ordered partition list and groups its parallel
	// result row per partition (groups[p.slot] tracks p.last). commit
	// publishes by cloning groups in one copy instead of walking the parts
	// map and re-boxing every row — the map walk plus per-row append was the
	// dominant snapshot-publish cost at high partition counts.
	plist  []*partition[E]
	groups []engine.GroupResult
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
type partition[E any] struct {
	vals    []float64 // partition key values (immutable, shared with snapshots)
	ekey    string    // canonical byte encoding of vals (subscriber filter key)
	ex      Executor[E]
	bex     BatchExecutor[E] // ex's native batched path, nil if it has none
	probeEx ProbeExecutor    // ex's probe-lane path, nil if it has none
	pend    []E              // events buffered for the in-progress batch
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
	slot   int // index into the owning worker's plist/groups
}

// refreshLanes re-evaluates every installed lane against this partition's
// executor and applies the residual gates.
func (p *partition[E]) refreshLanes(ws *workerState[E]) {
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

// addPartition registers p in the worker's map and ordered list, keeping the
// published-groups row aligned with the partition's slot.
func (ws *workerState[E]) addPartition(p *partition[E]) {
	p.slot = len(ws.plist)
	ws.parts[p.ekey] = p
	ws.plist = append(ws.plist, p)
	ws.groups = append(ws.groups, engine.GroupResult{Key: p.vals, Value: p.last})
	if len(ws.specs) > 0 && p.probeEx != nil {
		// Seed the lane results so partitions installed outside the dirty
		// path (snapshot restore) publish correct lanes.
		ws.sizeLanes(p)
		p.refreshLanes(ws)
	}
}

// sizeLanes sizes p's lane buffers to the installed spec count and evaluates
// the partition's residual gates.
func (ws *workerState[E]) sizeLanes(p *partition[E]) {
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

// laneMatrix clones the workers' per-partition lane rows (the value side, or
// the count side for AVG lanes) into one slot-major immutable matrix.
func laneMatrix[E any](ws *workerState[E], cntSide bool) []float64 {
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

// newPartition wraps an executor, capturing its batched path once so the hot
// loop dispatches without a per-batch type assertion.
func newPartition[E any](vals []float64, ex Executor[E]) *partition[E] {
	p := &partition[E]{vals: vals, ex: ex}
	p.bex, _ = ex.(BatchExecutor[E])
	p.probeEx, _ = ex.(ProbeExecutor)
	return p
}

// applyPend feeds the partition's buffered events to its executor — one
// ApplyBatch call when the executor is batch-native, an Apply loop otherwise
// (identical results either way; see BatchExecutor).
func (p *partition[E]) applyPend() {
	if p.bex != nil {
		p.bex.ApplyBatch(p.pend)
	} else {
		for i := range p.pend {
			p.ex.Apply(p.pend[i])
		}
	}
	p.pend = p.pend[:0]
}

// Snapshot is one shard's published state: the per-partition results as of
// the shard's last batch flush. Groups is immutable and unsorted; Total is
// the sum of the group values. Version is the shard's monotonic publication
// counter: it increases by at least one between any two distinct published
// snapshots, so readers comparing versions can order their observations.
type Snapshot struct {
	Version uint64
	Total   float64
	Groups  []engine.GroupResult
	// Probe lanes (empty unless SetProbes installed them): Probes are the
	// lane specs in canonical order, FanVals the per-partition per-lane
	// results laid out slot-major (partition slot i, lane l at
	// FanVals[i*K+l], rows parallel to Groups), and FanTotals the per-lane
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
	QueueDepth int    // events currently buffered in the input channel
	Partitions int    // partitions owned
	// EnqueueWaitNS is the cumulative nanoseconds Apply callers spent blocked
	// on this shard's full queue — the backpressure admission control reacts
	// to, surfaced end to end through the wire protocol's stats RPC.
	EnqueueWaitNS uint64
	// Rejected counts TryApply calls shed because the queue was full.
	Rejected uint64
	// BatchSize is the shard's effective drain bound: Config.BatchSize after
	// defaulting (64 when the config left it zero).
	BatchSize int
}

type shard[E any] struct {
	idx int
	in  chan item[E]
	// snap is the read-side hot word: every Result/ResultGrouped/Version
	// call loads it. The pads keep it off the cache lines of the
	// writer-side counters below (and of the neighboring shard structs), so
	// cross-core readers do not false-share with producers hammering the
	// counters.
	_    [64]byte
	snap atomic.Pointer[Snapshot]
	_    [64]byte
	// applied and flushed are written by the worker goroutine; waitNS and
	// rejected by producers. A line of separation between the two groups
	// keeps producer stalls from invalidating the worker's line.
	applied    atomic.Uint64
	flushed    atomic.Uint64
	partitions atomic.Int64
	_          [64]byte
	waitNS     atomic.Uint64
	rejected   atomic.Uint64
}

// Service is the sharded serving layer. Apply may be called from any number
// of goroutines; Result, ResultGrouped and Stats are safe concurrently with
// writers and never block them.
type Service[E any] struct {
	cfg    Config[E]
	shards []*shard[E]

	// batchPool recycles the boxes ApplyBatch ships batches in; workers
	// return them after unpacking.
	batchPool sync.Pool

	mu     sync.RWMutex // guards closed vs. in-flight Apply/Drain sends
	closed bool
	wg     sync.WaitGroup

	// epoch identifies this service instance for subscription resume: version
	// counters restart at zero on every boot, so a resume request is honored
	// only when its epoch matches (see Subscribe).
	epoch uint64

	subMu sync.Mutex // guards subs
	subs  map[*Subscription]struct{}
}

// New starts the service's shard workers.
func New[E any](cfg Config[E]) (*Service[E], error) {
	if cfg.Partition == nil || cfg.New == nil {
		return nil, errors.New("serve: Config.Partition and Config.New are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("serve: Config.BatchSize must not be negative (got %d)", cfg.BatchSize)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	s := &Service[E]{cfg: cfg, shards: make([]*shard[E], cfg.Shards),
		epoch: newEpoch(), subs: make(map[*Subscription]struct{})}
	for i := range s.shards {
		sh := &shard[E]{idx: i, in: make(chan item[E], cfg.QueueLen)}
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

// route returns the shard owning e's partition.
func (s *Service[E]) route(e E) *shard[E] {
	var kb [4]float64
	vals := normalizeVals(s.cfg.Partition(e, kb[:0]))
	return s.shards[hashVals(vals)%uint64(len(s.shards))]
}

// send enqueues it on sh, accounting backpressure stalls: the fast path is a
// non-blocking send, and only the full-queue path reads the clock.
func (s *Service[E]) send(sh *shard[E], it item[E]) {
	select {
	case sh.in <- it:
	default:
		start := time.Now()
		sh.in <- it
		sh.waitNS.Add(uint64(time.Since(start)))
	}
}

// Apply routes one event to its partition's shard. It blocks when the shard's
// queue is full (natural backpressure, accounted in the shard's EnqueueWaitNS
// counter) and returns ErrClosed after Close.
func (s *Service[E]) Apply(e E) error {
	sh := s.route(e)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.send(sh, item[E]{ev: e})
	s.mu.RUnlock()
	return nil
}

// ApplyBatch routes a whole batch in one pass: events are split by owning
// shard into pooled boxes (copied, so the caller may reuse its slice — the
// wire server decodes batches into per-connection scratch) and each shard
// receives its run as a single queue item, which its worker unpacks straight
// into the partitions' pending buffers. Per-shard event order is the slice
// order, exactly as if Apply had been called event by event. Blocks like
// Apply when a shard queue is full; returns ErrClosed after Close.
func (s *Service[E]) ApplyBatch(events []E) error {
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
		s.send(s.shards[0], item[E]{batch: box})
		s.mu.RUnlock()
		return nil
	}
	boxes := make([]*batchBox[E], len(s.shards))
	var kb [4]float64
	for i := range events {
		vals := normalizeVals(s.cfg.Partition(events[i], kb[:0]))
		idx := hashVals(vals) % uint64(len(s.shards))
		b := boxes[idx]
		if b == nil {
			b = s.getBox()
			boxes[idx] = b
		}
		b.events = append(b.events, events[i])
	}
	for i, b := range boxes {
		if b != nil {
			s.send(s.shards[i], item[E]{batch: b})
		}
	}
	s.mu.RUnlock()
	return nil
}

// getBox returns an empty pooled batch box.
func (s *Service[E]) getBox() *batchBox[E] {
	if b, ok := s.batchPool.Get().(*batchBox[E]); ok {
		b.events = b.events[:0]
		return b
	}
	return &batchBox[E]{}
}

// TryApply is the non-blocking Apply: when the owning shard's queue is full it
// increments the shard's Rejected counter and returns ErrBusy instead of
// waiting, so a front end can shed load while the queue depth stays bounded.
func (s *Service[E]) TryApply(e E) error {
	sh := s.route(e)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case sh.in <- item[E]{ev: e}:
		return nil
	default:
		sh.rejected.Add(1)
		return ErrBusy
	}
}

// run is the shard worker: drain a batch, buffer its events per partition,
// hand each touched partition its run via ApplyBatch, refresh the touched
// partitions, publish the snapshot, release any drain barriers — in that
// order, so a released Drain implies the acknowledged events are readable.
// Control requests and drain barriers terminate the in-progress batch: the
// worker commits everything queued before them, then serves them, preserving
// the FIFO semantics snapshot export and restore rely on.
func (s *Service[E]) run(sh *shard[E]) {
	defer s.wg.Done()
	ws := &workerState[E]{idx: sh.idx, partCols: s.cfg.PartitionCols,
		parts: make(map[string]*partition[E])}
	var (
		dirty   []*partition[E]
		syncs   []chan<- struct{}
		keyBuf  []float64
		byteBuf []byte
	)
	enqueue := func(e E) {
		keyBuf = normalizeVals(s.cfg.Partition(e, keyBuf[:0]))
		byteBuf = encodeKey(byteBuf[:0], keyBuf)
		p, ok := ws.parts[string(byteBuf)] // no alloc: compiler-optimized map access
		if !ok {
			vals := append([]float64(nil), keyBuf...)
			p = newPartition(vals, s.cfg.New(vals))
			p.ekey = string(byteBuf)
			ws.addPartition(p)
			sh.partitions.Store(int64(len(ws.parts)))
		}
		p.pend = append(p.pend, e)
		if !p.dirty {
			p.dirty = true
			dirty = append(dirty, p)
		}
		sh.applied.Add(1)
	}
	// commit applies the drained batch and publishes the snapshot.
	commit := func() {
		for _, p := range dirty {
			p.applyPend()
			p.last = p.ex.Result()
			ws.groups[p.slot].Value = p.last
			p.refreshLanes(ws)
			p.dirty = false
		}
		ws.version++
		if len(dirty) > 0 || ws.publishFull {
			ws.lastChange = ws.version
		}
		// Publish an immutable snapshot of every partition this shard owns.
		// The worker keeps the per-partition rows up to date in ws.groups, so
		// publication is one bulk clone of that slice (plus a slice-order
		// resum of the total, deterministic run to run) — not a walk of the
		// partition map re-boxing every row, whose iteration and per-batch
		// garbage dominated ingest CPU at high partition counts. A commit
		// that changed nothing (drain barriers, empty batches) reuses the
		// previous snapshot's Groups outright.
		prev := sh.snap.Load()
		snap := &Snapshot{Version: ws.version}
		if len(dirty) > 0 || ws.publishFull || prev == nil || len(prev.Groups) != len(ws.groups) {
			snap.Groups = append(make([]engine.GroupResult, 0, len(ws.groups)), ws.groups...)
			var total float64
			for i := range snap.Groups {
				total += snap.Groups[i].Value
			}
			snap.Total = total
			if k := len(ws.specs); k > 0 {
				snap.Probes = ws.specs
				snap.FanVals = laneMatrix(ws, false)
				snap.FanTotals = laneTotals(snap.FanVals, k, len(ws.plist))
				if ws.hasAvg {
					snap.FanCnts = laneMatrix(ws, true)
					snap.FanCntTotals = laneTotals(snap.FanCnts, k, len(ws.plist))
				}
			}
		} else {
			snap.Groups, snap.Total = prev.Groups, prev.Total
			snap.Probes, snap.FanVals, snap.FanTotals = prev.Probes, prev.FanVals, prev.FanTotals
			snap.FanCnts, snap.FanCntTotals = prev.FanCnts, prev.FanCntTotals
		}
		sh.snap.Store(snap)
		sh.flushed.Add(1)
		if len(ws.subs) > 0 || ws.publishFull {
			s.publishSubs(ws, dirty)
		}
		dirty = dirty[:0]
	}
	for it := range sh.in {
		n, stop := 0, false
		handle := func(it item[E]) {
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
			case it.batch != nil:
				for i := range it.batch.events {
					enqueue(it.batch.events[i])
				}
				n += len(it.batch.events)
				s.batchPool.Put(it.batch)
			default:
				enqueue(it.ev)
				n++
			}
		}
		handle(it)
	drain:
		for !stop && n < s.cfg.BatchSize {
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
func (s *Service[E]) Result() float64 {
	var total float64
	for _, sh := range s.shards {
		total += sh.snap.Load().Total
	}
	return total
}

// ResultGrouped returns the per-partition results as of each shard's last
// published snapshot, sorted by partition key (the engine.GroupedExecutor
// ordering).
func (s *Service[E]) ResultGrouped() []engine.GroupResult {
	var out []engine.GroupResult
	for _, sh := range s.shards {
		out = append(out, sh.snap.Load().Groups...)
	}
	sortGroups(out)
	return out
}

// sortGroups orders grouped results by partition key, the
// engine.GroupedExecutor ordering every grouped surface of this package uses.
func sortGroups(out []engine.GroupResult) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Version returns the sum of the shards' snapshot versions: a monotonic
// service-wide read version. Every publication on any shard increases it, so
// two successive calls never observe a decreasing value, and a write that has
// been committed (Drain returned) is visible to any read observing a version
// at least as large as the post-Drain one.
func (s *Service[E]) Version() uint64 {
	var v uint64
	for _, sh := range s.shards {
		v += sh.snap.Load().Version
	}
	return v
}

// ShardVersions returns each shard's current snapshot version, the
// fine-grained handle subscription resume is keyed on.
func (s *Service[E]) ShardVersions() []ShardVersion {
	out := make([]ShardVersion, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardVersion{Shard: i, Version: sh.snap.Load().Version}
	}
	return out
}

// Epoch identifies this service instance: shard versions are only comparable
// within one epoch, so subscription resume sends the epoch alongside the
// versions and the service falls back to a full reseed on mismatch.
func (s *Service[E]) Epoch() uint64 { return s.epoch }

// Subscribers reports the number of live subscriptions attached to the
// service — the per-query fan-out counter the catalog surfaces in stats.
func (s *Service[E]) Subscribers() int {
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	return n
}

// Stats returns the per-shard serving counters.
func (s *Service[E]) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:         i,
			Applied:       sh.applied.Load(),
			Flushed:       sh.flushed.Load(),
			QueueDepth:    len(sh.in),
			Partitions:    int(sh.partitions.Load()),
			EnqueueWaitNS: sh.waitNS.Load(),
			Rejected:      sh.rejected.Load(),
			BatchSize:     s.cfg.BatchSize,
		}
	}
	return out
}

// Drain blocks until every event sent before the call has been applied and
// reflected in the published snapshots (a read barrier for tests, benchmarks
// and consistent point-in-time reads).
func (s *Service[E]) Drain() error {
	dones := make([]chan struct{}, len(s.shards))
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	for i, sh := range s.shards {
		done := make(chan struct{})
		dones[i] = done
		sh.in <- item[E]{sync: done}
	}
	s.mu.RUnlock()
	for _, done := range dones {
		<-done
	}
	return nil
}

// Close stops accepting events, drains every queue, publishes the final
// snapshots, and waits for the shard workers to exit. It is idempotent only
// in the sense that a second call returns ErrClosed.
func (s *Service[E]) Close() error {
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

// Shards reports the shard count.
func (s *Service[E]) Shards() int { return len(s.shards) }

// String summarizes the service configuration.
func (s *Service[E]) String() string {
	return fmt.Sprintf("serve.Service{shards: %d, batch: %d, queue: %d}",
		len(s.shards), s.cfg.BatchSize, s.cfg.QueueLen)
}
