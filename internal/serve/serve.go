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
// Events enter only in batches, as rows laid out under the service's schema
// (ApplyRows) or as map events (ApplyBatch), and the query is prepared once:
// every partition executor shares one engine.Prepared. A shard drains its
// buffered input channel in batches: it hands every touched partition its
// run of the batch through the executor's ApplyRows, refreshes the probe
// lanes of the partitions the batch touched, and then publishes an immutable
// snapshot of all its partition results through an atomic pointer. Every
// served value is a probe lane (engine.ProbeSpec): the plan's own lane,
// which Result and ResultGrouped read, and any lanes SetProbes adds beside
// it. A snapshot is an ordered view: one copy of the shard's slot-major lane
// matrix over its shared, append-only key table, plus the shard's slots in
// key order, so publication costs eight pointer-free bytes per partition and
// lane and a grouped read is a k-way merge of the shards' ordered views with
// no sort. Readers therefore never take a lock and never block a writer:
// they read the last published snapshots, which lag the input by at most one
// batch per shard (call Drain for a barrier).
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
	// BatchSize bounds how many queued events a shard drains into one commit
	// (0 selects defaultBatchSize). A commit applies every queued box up to
	// the bound, then refreshes each touched partition once and publishes one
	// snapshot, so under backlog refresh and publication are paid once per
	// commit, not once per box. A larger bound delays the publication of a
	// backlog's first boxes by at most the bound's apply time; it never
	// delays an acknowledgment, which follows the enqueue. An idle shard
	// commits each box as it arrives whatever the bound. The effective value
	// is CommitBound, surfaced per shard in ShardStats.BatchSize.
	BatchSize int
}

// CommitBound is the drain bound o selects: BatchSize, or defaultBatchSize
// when it is zero.
func (o Options) CommitBound() int {
	if o.BatchSize == 0 {
		return defaultBatchSize
	}
	return o.BatchSize
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

// plan is the per-partition executor recipe, validated and bound once by
// newPlan so that building a partition's executor cannot fail afterwards.
// exec is the query every partition runs and spec the probe lane that reads
// the served query off it (prep.Spec). When the served query carries one
// bare partition-column conjunct, exec is its shareable base and spec
// carries the conjunct as a residual: the lane's gate zeroes the partitions
// it excludes — the read the catalog serves for such a query as a member
// lane, so a dedicated service and a shared lane stay bit-identical.
// Snapshots persist only the base state; the gate is configuration,
// re-derived from the key.
//
// schema is the service's row layout: every column exec reads. Events are
// laid out under it once, on the way in, and prep is exec bound to it —
// every partition executor shares that one binding. A partition column exec
// does not read stays out of the rows: a partition's key is the
// dictionary's.
type plan struct {
	exec   *query.Query
	cols   []string
	spec   engine.ProbeSpec
	schema *query.Schema
	prep   *engine.Prepared
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
	base, residual, split := engine.SplitResidual(q, partitionBy)
	if split {
		pl.exec = base
	}
	pl.schema = query.NewSchema(pl.exec.Columns()...)
	prep, err := engine.Prepare(pl.exec, pl.schema)
	if err != nil {
		return nil, err
	}
	pl.prep = prep
	pl.spec = prep.Spec()
	if split {
		residual.Kind, residual.Const = pl.spec.Kind, pl.spec.Const
		pl.spec = residual
	}
	return pl, nil
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

// batchBox carries one shard's slice of an ingest call through the queue as
// rows of the plan's schema grouped by partition: runs[i] names the
// partition of the next runs[i].n rows. The worker applies each run straight
// from the box. Boxes are recycled through the service's free list (idle):
// the worker returns them after applying, so steady-state batch ingest
// reuses the same backing arrays.
type batchBox struct {
	rows engine.Rows
	runs []boxRun
}

// boxRun is one partition's run of rows in a batch box.
type boxRun struct {
	id, n int32
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
	// slotOf maps a partition id of the service's dictionary to its slot
	// here plus one (0: the shard does not own the id, or has not seen it).
	slotOf []int32
	// specs are the installed probe lanes: specs[0] is the plan's own lane,
	// then the lanes SetProbes added in canonical order. gated notes whether
	// any lane carries a residual gate.
	specs []engine.ProbeSpec
	gated bool
	// plist is the partition list in slot (creation) order, and keys, vals
	// and cnts are its published columns: keys[slot] is the partition's key
	// and vals[slot*k+lane] its value of lane `lane` (k = len(specs)), the
	// slot-major lane matrix each refresh writes in place; cnts is the AVG
	// lanes' count side (raw sum/count pairs), laid out alike, and nil unless
	// an AVG lane is installed. keys is
	// append-only and shared with snapshots by prefix (keys[:n:n]) — keys are
	// immutable and partitions are never deleted — so a commit copies only
	// the matrix: eight bytes per partition and lane, no pointers for the
	// collector to scan. order is the slots in key order
	// (engine.CompareKeys) and rank its inverse (rank[slot] is the slot's
	// position in order); a commit that creates partitions replaces both
	// with new slices, so published snapshots keep theirs.
	plist []*partition
	keys  [][]float64
	vals  []float64
	cnts  []float64
	order []int32
	rank  []int32
	// version counts this shard's snapshot publications: every commit that
	// changes state bumps it (an empty commit publishes nothing), so it is
	// the monotonic version readers and subscribers key on, and a
	// subscriber resuming from the current version provably missed nothing.
	version uint64
	// subs are the subscriber slots registered on this shard; commit offers
	// each publication to every slot (see subscribe.go).
	subs []*subShard
	// publishFull makes the next commit offer subscribers the full partition
	// set instead of the dirty delta — set after a lane change (SetProbes),
	// where the previous published state is no longer a valid delta base.
	publishFull bool
}

// partition is one partition owned by a shard: its executor, whose lanes
// the worker's matrix holds at row slot.
type partition struct {
	vals  []float64 // partition key values (immutable, shared with snapshots)
	ex    engine.RowExecutor
	dirty bool
	stale bool // applied since its last refresh
	slot  int  // index into the owning worker's plist/keys and matrix rows
}

// setLanes installs specs (the plan's lane first) and sizes the lane matrix
// for them; the caller refreshes every partition.
func (ws *workerState) setLanes(specs []engine.ProbeSpec) {
	n := len(ws.plist) * len(specs)
	ws.specs, ws.gated, ws.vals, ws.cnts = specs, false, make([]float64, n), nil
	for _, sp := range specs {
		ws.gated = ws.gated || sp.Residual
		if sp.Kind == query.Avg && ws.cnts == nil {
			ws.cnts = make([]float64, n)
		}
	}
}

// refresh re-evaluates every installed lane of p in its matrix row, zeroing
// the lanes whose residual gate excludes p's key: a gated-off lane
// contributes nothing to its totals, exactly a dedicated executor's 0 for a
// partition its residual conjunct excludes.
func (ws *workerState) refresh(p *partition) {
	k := len(ws.specs)
	row := ws.vals[p.slot*k : (p.slot+1)*k]
	var cnt []float64
	if ws.cnts != nil {
		cnt = ws.cnts[p.slot*k : (p.slot+1)*k]
	}
	p.ex.ResultProbe(ws.specs, row, cnt)
	if !ws.gated {
		return
	}
	for i, sp := range ws.specs {
		if !sp.GateOn(ws.partCols, p.vals) {
			row[i] = 0
			if cnt != nil {
				cnt[i] = 0
			}
		}
	}
}

// lookup returns the partition of id, nil when the shard has none.
func (ws *workerState) lookup(id int32) *partition {
	if int(id) < len(ws.slotOf) {
		if slot := ws.slotOf[id]; slot > 0 {
			return ws.plist[slot-1]
		}
	}
	return nil
}

// addPartition registers p as the partition of id in the worker's slot list,
// appending its key and a zero matrix row; the caller refreshes it. The next
// commit merges the new slot into the key order.
func (ws *workerState) addPartition(id int32, p *partition) {
	p.slot = len(ws.plist)
	if n := int(id) + 1; n > len(ws.slotOf) {
		ws.slotOf = append(ws.slotOf, make([]int32, n-len(ws.slotOf))...)
	}
	ws.slotOf[id] = int32(p.slot) + 1
	ws.plist = append(ws.plist, p)
	ws.keys = append(ws.keys, p.vals)
	for range ws.specs {
		ws.vals = append(ws.vals, 0)
		if ws.cnts != nil {
			ws.cnts = append(ws.cnts, 0)
		}
	}
}

// extendOrder merges the slots created since the last commit into the key
// order and rebuilds its inverse. It builds new slices — published
// snapshots keep the old ones — so only commits that create partitions pay
// for it.
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
	ws.rank = make([]int32, len(ws.order))
	for pos, slot := range ws.order {
		ws.rank[slot] = int32(pos)
	}
}

// snapshot builds the publication for ws.version: it copies the lane matrix
// (and its count side when an AVG lane is installed) and shares the key
// table and key order. Lane totals are slot-order sums, deterministic run to
// run.
func (ws *workerState) snapshot() *Snapshot {
	n := len(ws.plist)
	if len(ws.order) != n {
		ws.extendOrder()
	}
	k := len(ws.specs)
	snap := &Snapshot{Version: ws.version, Keys: ws.keys[:n:n], Order: ws.order, rank: ws.rank, Probes: ws.specs,
		Vals: slices.Clone(ws.vals)}
	snap.Totals = laneTotals(snap.Vals, k, n)
	if ws.cnts != nil {
		snap.Cnts = slices.Clone(ws.cnts)
		snap.CntTotals = laneTotals(snap.Cnts, k, n)
	}
	return snap
}

// laneTotals sums each lane over all partition slots in slot order.
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

// Snapshot is one shard's published state, an ordered view of the
// per-partition lane values as of the shard's last batch flush. Keys are
// the partition keys by slot and Order lists the slots in key order
// (engine.CompareKeys). Probes are the installed lanes, the plan's own
// first; Vals is the lane matrix laid out slot-major (partition slot i,
// lane l at Vals[i*K+l]), and Totals each lane's sum over all partitions in
// slot order, so a lane's total is bit-identical to a dedicated service's.
// AVG lanes carry raw (term sum, count) pairs: Cnts and CntTotals hold the
// count side (nil when no lane needs it), and readers finish the quotient
// via engine.FinishProbe. Every slice is immutable: Keys is a prefix of the
// shard's append-only key table and Order is replaced, never edited, when
// partitions are created. Version is the shard's monotonic publication
// counter: it increases by at least one between any two distinct published
// snapshots, so readers comparing versions can order their observations.
// Subscriptions read their frames from it too: a lagging subscriber's slot
// pins the newest snapshot offered to it and the pump builds the frame's
// groups from that snapshot's columns (see subscribe.go), which is why
// nothing in it may be written after publication.
type Snapshot struct {
	Version   uint64
	Keys      [][]float64
	Order     []int32
	rank      []int32 // Order's inverse: rank[slot] is slot's position in Order
	Probes    []engine.ProbeSpec
	Vals      []float64
	Totals    []float64
	Cnts      []float64
	CntTotals []float64
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
	// defaulting (defaultBatchSize, 4 096, when the options left it zero).
	// Applied/Flushed is the events per commit the shard achieved against it.
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
	dict   *Partitions // the dictionary the service takes partition ids from
	shards []*shard
	// gather is the mapping of the last source schema ApplyRows saw onto
	// the plan's (see gatherFor).
	gather atomic.Pointer[gather]

	// idle is the free list of the boxes ApplyRows ships batches in, guarded
	// by boxMu: workers push a box after unpacking it and getBox pops the
	// newest. It holds at most the boxes that were in flight at once — at
	// most QueueLen queued per shard, plus those being filled or applied —
	// and Checkpoint empties it, so an idle service does not keep an ingest
	// burst's boxes past its next checkpoint (a sync.Pool would keep them
	// through the collection that follows it).
	boxMu sync.Mutex
	idle  []*batchBox

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
// partitioning engine events by the given tuple columns, with a partition
// dictionary of its own. Each partition gets its own executor from
// engine.New (so eligible queries use the aggregate-index strategy per
// partition). The query is validated and planned once up front;
// per-partition construction cannot fail afterwards. The service can always
// Checkpoint, and RecoverForQuery reopens what it exported.
func ForQuery(q *query.Query, partitionBy []string, opt Options) (*Service, error) {
	return ForPartitions(NewPartitions(partitionBy), q, opt)
}

// ForPartitions is ForQuery over d's partition columns, taking partition ids
// from d: every service built on one dictionary routes a batch d.Route
// resolved once (a catalog's state sets share one).
func ForPartitions(d *Partitions, q *query.Query, opt Options) (*Service, error) {
	pl, err := newPlan(q, d.cols)
	if err != nil {
		return nil, err
	}
	return start(pl, d, opt)
}

// defaultBatchSize is the drain bound a zero Options.BatchSize selects. The
// stack benchmark puts about 128 events on a shard per client batch, so a
// bound of 64 made every box its own commit; 4 096 was the best of 64, 256,
// 1 024 and 4 096 on its multi-distinct workload (EXPERIMENTS.md, "Group
// commit").
const defaultBatchSize = 4096

// start validates opt, applies its defaults, and starts the shard workers.
func start(pl *plan, d *Partitions, opt Options) (*Service, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	if opt.QueueLen == 0 {
		opt.QueueLen = 1024
	}
	opt.BatchSize = opt.CommitBound()
	s := &Service{opt: opt, plan: pl, dict: d, shards: make([]*shard, opt.Shards),
		epoch: newEpoch(), subs: make(map[*Subscription]struct{})}
	for i := range s.shards {
		sh := &shard{idx: i, in: make(chan item, opt.QueueLen)}
		sh.snap.Store(&Snapshot{Probes: []engine.ProbeSpec{pl.spec}, Totals: []float64{0}})
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
// +0 and every NaN payload becomes the canonical quiet NaN. Without this, the
// partition dictionary and hashVals would treat -0 and +0 (or two NaN
// variants) as distinct partition keys and one logical partition could land
// on two shards.
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
// normalized keys (see normalizeVals); the partition dictionary computes it
// once per distinct key.
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

// readKey appends the normalized partition key of row — the values at
// slots — to buf (append-style, so steady-state routing does not allocate).
func readKey(buf, row []float64, slots []int) []float64 {
	for _, i := range slots {
		buf = append(buf, row[i])
	}
	return normalizeVals(buf)
}

// gather maps a source schema's rows onto the plan's: slots[j] is the
// source slot of the plan's column j. Schemas are immutable, so a gather
// computed once holds for the source's life.
type gather struct {
	src   *query.Schema
	slots []int
}

// gatherFor returns the gather for src, computing it when src is not the
// schema the last call saw. A source lacking one of the service's columns is
// refused: its rows cannot carry the events the service maintains.
func (s *Service) gatherFor(src *query.Schema) (*gather, error) {
	if g := s.gather.Load(); g != nil && g.src == src {
		return g, nil
	}
	g := &gather{src: src}
	for _, c := range s.plan.schema.Cols() {
		i, ok := src.Slot(c)
		if !ok {
			return nil, fmt.Errorf("serve: source schema %v lacks column %q", src.Cols(), c)
		}
		g.slots = append(g.slots, i)
	}
	s.gather.Store(g)
	return g, nil
}

// lay appends row, a row of g's source schema, to dst as a row of the plan's.
func (g *gather) lay(dst *engine.Rows, x float64, row []float64) {
	out := dst.Add(x)
	for j, i := range g.slots {
		out[j] = row[i]
	}
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

// ApplyBatch applies a batch of map events — the map edge of ApplyRows:
// under the dictionary's lock, the events are routed and laid out as rows of
// the service's schema straight into the shards' boxes, on the caller's
// goroutine, and from there on take ApplyRows' path.
func (s *Service) ApplyBatch(events []engine.Event) error {
	if len(events) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	var one [1]*batchBox
	boxes := one[:]
	if len(s.shards) > 1 {
		boxes = make([]*batchBox, len(s.shards))
	}
	cols := s.plan.schema.Cols()
	d := s.dict
	d.mu.Lock()
	d.route(len(events), func(i int, buf []float64) []float64 {
		for _, c := range d.cols {
			buf = append(buf, events[i].Tuple[c])
		}
		return buf
	}, &d.edge)
	rt := &d.edge
	var start int32
	for _, r := range rt.runs {
		b := s.boxRun(boxes, rt, r, start)
		for _, i := range rt.rows[start:r.end] {
			b.rows.Project(events[i].X, cols, events[i].Tuple)
		}
		start = r.end
	}
	d.mu.Unlock()
	s.sendBoxes(boxes)
	return nil
}

// ApplyRows applies a batch of rows laid out under src (a schema holding
// every column of the service's, such as a catalog's; any other is refused)
// whose partitions rt resolved — Route of the dictionary the service takes
// its ids from (Partitions); a routing from another dictionary is refused.
// The rows are split by owning shard into recycled boxes and copied onto the
// service's own schema (so the caller may reuse rows — the catalog decodes
// every batch into one scratch arena and fans it out to each of its sets),
// and each shard receives its run as a single queue item. Per-partition
// event order is the row order. It blocks when a shard queue is full
// (natural backpressure, accounted in the shard's EnqueueWaitNS counter)
// and returns ErrClosed after Close.
func (s *Service) ApplyRows(src *query.Schema, rows *engine.Rows, rt *Routing) error {
	n := rows.Len()
	if n == 0 {
		return nil
	}
	if rt.d != s.dict || len(rt.rows) != n {
		return errors.New("serve: ApplyRows needs the rows' routing by the service's own partition dictionary")
	}
	g, err := s.gatherFor(src)
	if err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	var one [1]*batchBox
	boxes := one[:]
	if len(s.shards) > 1 {
		boxes = make([]*batchBox, len(s.shards))
	}
	var start int32
	for _, r := range rt.runs {
		b := s.boxRun(boxes, rt, r, start)
		for _, i := range rt.rows[start:r.end] {
			x, row := rows.At(int(i))
			g.lay(&b.rows, x, row)
		}
		start = r.end
	}
	s.sendBoxes(boxes)
	return nil
}

// boxRun returns the box of run r's shard (one slot per shard in boxes)
// with the run's header appended — its rows, rt.rows[start:r.end], are the
// caller's to append. A shard's first run takes an empty box (getBox),
// grown for the shard's expected share of the batch's rows and runs.
func (s *Service) boxRun(boxes []*batchBox, rt *Routing, r run, start int32) *batchBox {
	idx := r.hash % uint64(len(boxes))
	b := boxes[idx]
	if b == nil {
		share := func(n int) int { return (n + len(boxes) - 1) / len(boxes) }
		b = s.getBox(share(len(rt.rows)), share(len(rt.runs)))
		boxes[idx] = b
	}
	b.runs = append(b.runs, boxRun{id: r.id, n: r.end - start})
	return b
}

// sendBoxes enqueues each shard's box.
func (s *Service) sendBoxes(boxes []*batchBox) {
	for i, b := range boxes {
		if b != nil {
			s.send(s.shards[i], item{batch: b})
		}
	}
}

// getBox returns an empty batch box, the free list's newest or a new one,
// with room for n events in runs partition runs.
func (s *Service) getBox(n, runs int) *batchBox {
	s.boxMu.Lock()
	var b *batchBox
	if k := len(s.idle) - 1; k >= 0 {
		b = s.idle[k]
		s.idle[k] = nil
		s.idle = s.idle[:k]
	}
	s.boxMu.Unlock()
	if b == nil {
		b = &batchBox{}
	}
	b.rows.Reset(s.plan.schema.Len())
	b.rows.Grow(n)
	b.runs = slices.Grow(b.runs[:0], runs)
	return b
}

// putBox returns an unpacked box to the free list.
func (s *Service) putBox(b *batchBox) {
	s.boxMu.Lock()
	s.idle = append(s.idle, b)
	s.boxMu.Unlock()
}

// run is the shard worker, a group commit: drain the queued boxes up to
// BatchSize events, hand each box's partition runs to their executors'
// ApplyRows straight from the box, refresh the touched partitions once,
// publish one snapshot, release any drain barriers — in that order, so a
// released Drain implies the acknowledged events are readable. A drain
// barrier ends the commit. A control request commits everything queued
// before it and then runs, preserving the FIFO semantics snapshot export
// and restore rely on; the worker keeps draining after it, so the commit
// that ends the drain publishes the control's effect together with the
// boxes queued behind it.
func (s *Service) run(sh *shard) {
	defer s.wg.Done()
	ws := &workerState{idx: sh.idx, partCols: s.plan.cols}
	ws.setLanes([]engine.ProbeSpec{s.plan.spec})
	var (
		dirty []*partition
		syncs []chan<- struct{}
	)
	stride := s.plan.schema.Len() + 1
	// view is the executor's window onto one run of a box: kept here, not
	// built per run, so handing it over does not allocate.
	view := &engine.Rows{Width: stride - 1}
	// apply hands each of b's runs to its partition's executor, creating the
	// partitions the shard has not seen; the slots they take are in first-
	// occurrence order, as the runs are. When b is the last box of its
	// commit, each run's partition is refreshed right after the run, while
	// its index nodes are still in cache; otherwise at commit. A box holds
	// one run per partition, so a touched partition is refreshed once per
	// commit either way.
	apply := func(b *batchBox, last bool) {
		off := 0
		for _, r := range b.runs {
			end := off + int(r.n)*stride
			view.Data = b.rows.Data[off:end:end]
			off = end
			p := ws.lookup(r.id)
			if p == nil {
				p = &partition{vals: s.dict.keyOf(r.id), ex: s.plan.prep.New()}
				ws.addPartition(r.id, p)
				sh.partitions.Store(int64(len(ws.plist)))
			}
			p.ex.ApplyRows(view)
			p.stale = !last
			if last {
				ws.refresh(p)
			}
			if !p.dirty {
				p.dirty = true
				dirty = append(dirty, p)
			}
		}
		view.Data = nil
	}
	// commit refreshes the touched partitions apply left stale and
	// publishes the snapshot of the drained batch. A commit that changed
	// nothing — no touched partition, no partition created (a restore
	// installs them by control request), no lane change — publishes nothing:
	// the published snapshot is still the shard's state, so the version
	// stands and subscribers are not woken.
	commit := func() {
		for _, p := range dirty {
			if p.stale {
				ws.refresh(p)
				p.stale = false
			}
			p.dirty = false
		}
		if len(dirty) == 0 && !ws.publishFull && len(ws.order) == len(ws.plist) {
			return
		}
		ws.version++
		snap := ws.snapshot()
		sh.snap.Store(snap)
		sh.flushed.Add(1)
		if len(ws.subs) > 0 || ws.publishFull {
			s.publishSubs(ws, snap, dirty)
		}
		dirty = dirty[:0]
	}
	for it := range sh.in {
		n, stop := 0, false
		handle := func(it item) {
			switch {
			case it.ctl != nil:
				// Commit queued work first so the control request observes
				// (and snapshots) fully applied state; the drain then goes
				// on with a fresh count.
				commit()
				n = 0
				it.ctl.done <- it.ctl.fn(ws)
			case it.sync != nil:
				syncs = append(syncs, it.sync)
				stop = true
			default:
				b := it.batch
				k := b.rows.Len()
				// A box that fills the batch ends the commit: the drain
				// below stops at BatchSize events.
				apply(b, n+k >= s.opt.BatchSize)
				n += k
				sh.applied.Add(uint64(k))
				s.putBox(b)
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

// Spec is the plan's own probe lane, the one Result and ResultGrouped read
// and subscriptions default to.
func (s *Service) Spec() engine.ProbeSpec { return s.plan.spec }

// Result returns the sum of all partition results as of each shard's last
// published snapshot: the plan's lane total.
func (s *Service) Result() float64 {
	v, _ := s.ProbeResult(s.plan.spec)
	return v
}

// ResultGrouped returns the per-partition results as of each shard's last
// published snapshot, sorted by partition key (engine.CompareKeys, the
// engine.GroupedExecutor ordering): the plan's lane.
func (s *Service) ResultGrouped() []engine.GroupResult {
	g, _ := s.ProbeResultGrouped(s.plan.spec)
	return g
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
