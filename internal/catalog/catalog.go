// Package catalog is the multi-query serving layer: a prepared-statement
// catalog that owns a set of registered queries, compiles each through the
// sqlparse → query → engine pipeline, and fans one shared ingest stream out
// to every query's sharded executor service.
//
// The lifecycle mirrors the Parse → Prepare → Execute phases of a classic
// query service:
//
//   - Register parses and plans the SQL (Parse/Prepare), assigns a QueryID,
//     and either joins an existing executor set or boots a fresh one;
//   - DecodeRecord and ApplyRecord execute: a batch, in its WAL record
//     encoding (the wire batch body after its header), is decoded once into
//     rows bound to the catalog's column schema — the partition columns plus
//     every column a live executor set reads — then logged ONCE
//     to the catalog's shared WAL, as received — one record per batch
//     regardless of how many queries are registered — and its rows applied
//     to every distinct executor set; ApplyBatch is the same for map events;
//   - per-query reads (Result, ResultGrouped, Subscribe, Stats) are served
//     by the query's own serve.Service, so every property of the sharded
//     serving layer (sharding, snapshots, coalescing push subscriptions)
//     holds per registered query.
//
// Index sharing is organized around the engine's StateSet/ProbePlan split: an
// executor set is a *state set* — the maintained base-relation state and its
// RPAI/aggregate indexes, owned by ingest — and each registration reads it
// through a *probe plan* (engine.ProbeSpec): an outer aggregate kind, a
// threshold constant, and an optional residual partition-column conjunct.
// Registrations whose probe-eligible queries resolve to the same state
// identity (engine.StateKey) share one set, whether they differ in threshold
// constant, outer aggregate (SUM vs COUNT(*) vs AVG), or a residual filter
// conjunct (engine.SplitResidual); COUNT(*) variants additionally attach
// across aggregate terms, because the count index is term-independent. Every
// read is a probe lane evaluated against the shared indexes, bit-identical
// to a dedicated service: the set's own plan lane, or a member lane
// (serve.SetProbes) beside it. Which lane a registration reads depends only
// on its own query, never on who else is registered.
//
// Sharing is retroactive: a variant registered after the set has ingested
// events joins anyway and inherits the family's history — on a durable
// catalog the join is committed by forking the set's state as a checkpoint
// snapshot (so recovery restores the joined set from the fork instead of
// replaying the family's earlier records). Explain reports the state/probe
// split, both kinds of sharing, and the predicate-structure signature that
// makes family sharing visible.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// QueryID names one registered query for its lifetime. IDs are never reused,
// so a stale ID fails loudly instead of silently reading another query.
type QueryID uint64

// ErrUnknownQuery is returned for a QueryID that is not (or no longer)
// registered.
var ErrUnknownQuery = errors.New("catalog: unknown query id")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("catalog: closed")

// ErrNotDurable is returned by Checkpoint on a catalog built without
// Options.Dir: there is no generation to rotate.
var ErrNotDurable = errors.New("catalog: Checkpoint requires Options.Dir")

// ErrReadOnly is returned by every write and registration call on a follower
// (see Follow): its state changes only by tailing the primary's log.
var ErrReadOnly = errors.New("catalog: read-only follower")

// Options configures a catalog. PartitionBy applies to every registered
// query (the catalog serves one logical relation, so grouping keys are
// shared); Shards/QueueLen/BatchSize parameterize each query's executor
// service exactly as serve.Options does, and are validated the same way
// before a data directory is touched.
type Options struct {
	PartitionBy []string
	Shards      int
	QueueLen    int
	BatchSize   int
	// Dir, when set, makes the catalog durable: registrations persist in a
	// CATALOG manifest, every applied batch is logged once to a shared WAL,
	// and Recover rebuilds the full catalog after a crash.
	Dir string
	// CompactEvery, when positive, rotates a generation (as Checkpoint does)
	// once that many events have been logged since the last rotation,
	// bounding replay work on recovery. It needs Dir.
	CompactEvery int
}

// registration is one registered query: its ID, the SQL text as submitted,
// the executor set serving it, and spec, the probe lane its reads go
// through. shared marks a probe-eligible query, whose spec is its own probe
// plan against the set's shared state; a non-shared registration reads the
// set's plan lane (serve.Service.Spec) and shares only with exact canonical
// duplicates.
type registration struct {
	id     QueryID
	sql    string // original text, echoed in List/Explain
	set    *execSet
	plan   engine.Plan
	canon  string
	shared bool
	spec   engine.ProbeSpec
}

// execSet is one state set: an executor service owning maintained relation
// state, plus the registrations probing it.
//
//   - stateKey/baseKey are the set's sharing identities (engine.StateKey):
//     stateKey admits any aggregate/threshold/residual variant over the same
//     maintained state, baseKey additionally admits COUNT(*) variants across
//     aggregate terms (empty when the state keeps no count side).
//   - baseSQL is the founding query's SQL and q the query the executors
//     actually run — the founder's query, except that AVG founders and
//     COUNT founders without a count-side index run the SUM form (their own
//     aggregate is served as a probe lane; see deriveState).
//   - lanes counts the shared members per probe plan (nil for a private
//     set): the member lanes installed beside the set's plan lane.
//   - founded is the catalog's lifetime batch count when the set was
//     created (the member history epoch Explain reports as StateSince);
//     since is a current-generation WAL record index: the set's on-disk
//     starting state (snapshot or empty) is current through it, and
//     recovery replays records [since, records) into the set. A
//     retroactive join advances since by forking the live state into a
//     snapshot at snapDir (taken at record index snapAt).
type execSet struct {
	setID    uint64
	canon    string
	baseSQL  string
	q        *query.Query
	stateKey string
	baseKey  string
	svc      *serve.Service
	refs     map[QueryID]struct{}
	since    uint64
	founded  uint64
	lanes    map[engine.ProbeSpec]int
	snapDir  string
	snapAt   uint64
	rejected atomic.Uint64
	// prep is q bound to the catalog's schema; its Admit is the check whether
	// the set's executors can maintain an event, which ingest asks every set
	// before it logs a batch.
	prep *engine.Prepared
}

// Service is the catalog. All public methods are safe for concurrent use.
type Service struct {
	opt Options

	// mu guards the registration tables. Ingest holds it for read, Register/
	// Unregister/Checkpoint for write, so a batch never interleaves with a
	// registration change (the alignment that keeps `since` exact).
	mu       sync.RWMutex
	regs     map[QueryID]*registration
	sets     map[string]*execSet // canonical SQL -> newest set serving that form
	states   map[string]*execSet // engine.StateKey -> newest shared state set
	baseKeys map[string]*execSet // masked StateKey -> newest count-attachable set
	nextID   QueryID
	nextSet  uint64
	closed   bool
	// setList is every live executor set once (registrations can share
	// sets), in set-ID order for deterministic fan-out: what ingest, drain
	// and rotation walk. indexSetsLocked rebuilds it whenever a registration
	// is added or removed.
	setList []*execSet

	// schema is the catalog's row layout: the partition columns, then every
	// column a live set's query reads, in set order. Register extends it and
	// a set's teardown rebuilds it (rebindSchemaLocked), both under mu held
	// for write; ingest decodes against the version it loads and, holding mu
	// for read, decodes again if the schema changed in between (see
	// ApplyRecord).
	schema atomic.Pointer[query.Schema]
	// edgeMu guards edge, the map API's record scratch (see ApplyBatch).
	edgeMu sync.Mutex
	edge   edgeBatch

	// ingestMu serializes ingest so the WAL record order equals the
	// per-shard application order — the invariant recovery replay relies on.
	ingestMu sync.Mutex
	records  uint64 // WAL records written this generation (== batches applied)
	applied  uint64 // lifetime batches applied, never reset — founding epochs
	logged   int    // events logged this generation, for Options.CompactEvery

	dur    *durableState // nil for in-memory catalogs and followers
	follow *follower     // nil unless built by Follow
}

// New builds a catalog. With Options.Dir set it becomes durable: an existing
// catalog directory is rejected (use Recover for that); otherwise the
// manifest and WAL for generation 1 are created before New returns.
func New(opt Options) (*Service, error) {
	if len(opt.PartitionBy) == 0 {
		return nil, errors.New("catalog: Options.PartitionBy must name at least one column")
	}
	if opt.CompactEvery > 0 && opt.Dir == "" {
		return nil, errors.New("catalog: Options.CompactEvery requires Options.Dir")
	}
	if err := opt.serveOptions().Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		opt:      opt,
		regs:     make(map[QueryID]*registration),
		sets:     make(map[string]*execSet),
		states:   make(map[string]*execSet),
		baseKeys: make(map[string]*execSet),
		nextID:   1,
		nextSet:  1,
	}
	s.schema.Store(query.NewSchema(opt.PartitionBy...))
	if opt.Dir != "" {
		if err := s.initDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// serveOptions are the per-set service options.
func (o Options) serveOptions() serve.Options {
	return serve.Options{Shards: o.Shards, QueueLen: o.QueueLen, BatchSize: o.BatchSize}
}

// deriveState resolves a founder query's sharing identity and the query its
// state set's executors run. Probe-ineligible queries found private sets that
// run the query verbatim (exec == q, empty keys). For probe-eligible ones the
// keys come from the shareable base (the query minus any residual conjunct),
// and exec is the founder's own query except when its outer aggregate cannot
// anchor the set's executors:
//
//   - AVG is not sum-decomposable across partitions (serve rejects it), and
//   - COUNT on the count-free aggindex shape (baseKey == "") plans onto the
//     general algorithm, whose state answers no lane but its own;
//
// both run the SUM form instead — exact for COUNT, whose term there is the
// constant 1 — and the founder reads its own aggregate as a member lane.
func deriveState(q *query.Query, partitionBy []string) (exec *query.Query, stateKey, baseKey string, spec engine.ProbeSpec, shared bool) {
	stateKey, baseKey, spec, shared = engine.StateKey(q)
	if !shared {
		if b, sp, ok := engine.SplitResidual(q, partitionBy); ok {
			spec, shared = sp, true
			stateKey, baseKey, _, _ = engine.StateKey(b)
		}
	}
	if !shared {
		return q, "", "", engine.ProbeSpec{}, false
	}
	exec = q
	if q.Outer == query.Avg || (q.Outer == query.Count && baseKey == "") {
		cp := *q
		cp.Outer = query.Sum
		exec = &cp
	}
	return exec, stateKey, baseKey, spec, true
}

// Register parses, plans, and activates one query, returning its ID and
// EXPLAIN output. A malformed or unsupported query fails with the parser's
// positioned error or the planner's rejection; nothing is registered.
//
// Set resolution, most to least specific: an exact canonical match joins its
// set outright; a probe-eligible query joins the newest set with the same
// state identity; a COUNT(*) variant additionally joins the newest set whose
// masked identity matches (the count index does not depend on the aggregate
// term). Joining is retroactive — the set's ingest history is the member's
// history (a late variant is the family's variant, not a fresh query) — and
// on a durable catalog a late join first forks the set's live state into a
// checkpoint snapshot, so recovery restores the member's set without
// replaying the family's earlier WAL records. Only when nothing matches is a
// fresh set founded.
func (s *Service) Register(sql string) (QueryID, Explain, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, Explain{}, err
	}
	plan, err := engine.Describe(q)
	if err != nil {
		return 0, Explain{}, err
	}
	canon := q.String()
	exec, stateKey, baseKey, spec, shared := deriveState(q, s.opt.PartitionBy)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, Explain{}, ErrClosed
	}
	if s.follow != nil {
		return 0, Explain{}, ErrReadOnly
	}
	id := s.nextID
	s.nextID++

	set := s.sets[canon]
	if set == nil && shared {
		set = s.states[stateKey]
		if set == nil && spec.Kind == query.Count && baseKey != "" {
			set = s.baseKeys[baseKey]
		}
	}
	created := false
	joinedFork := false
	var oldSince uint64
	if set == nil {
		// The schema grows by the set's columns before the set exists; a
		// registration rolled back takes them out again.
		sch := s.schema.Load().Extend(exec.Columns()...)
		prep, err := engine.Prepare(exec, sch)
		if err != nil {
			return 0, Explain{}, err
		}
		svc, err := serve.ForQuery(exec, s.opt.PartitionBy, s.opt.serveOptions())
		if err != nil {
			return 0, Explain{}, err
		}
		s.schema.Store(sch)
		set = &execSet{
			setID:    s.nextSet,
			canon:    canon,
			baseSQL:  sql,
			q:        exec,
			prep:     prep,
			stateKey: stateKey,
			baseKey:  baseKey,
			svc:      svc,
			refs:     make(map[QueryID]struct{}),
			since:    s.records,
			founded:  s.applied,
		}
		if shared {
			set.lanes = make(map[engine.ProbeSpec]int)
		}
		s.nextSet++
		created = true
	} else if s.dur != nil && set.since != s.records {
		// Retroactive join of a set with unsnapshotted history: fork the live
		// state into a checkpoint snapshot first, so the manifest can commit
		// this member against state that exists on disk — recovery then
		// restores the set from the fork instead of replaying the family's
		// records [since, now).
		if err := s.forkSetLocked(set); err != nil {
			return 0, Explain{}, fmt.Errorf("catalog: fork set %d for late joiner: %w", set.setID, err)
		}
		joinedFork = true
		oldSince = set.since
		set.since = s.records
	}
	prevCanon, hadCanon := s.sets[canon]
	// A join registers the member's canonical form too, so a later exact
	// duplicate of this member finds the set directly. The state maps are
	// touched only at founding: joins found them populated (with this set or
	// a newer one), and the newest set keeps winning.
	s.sets[canon] = set
	if created && shared {
		s.states[stateKey] = set
		if baseKey != "" {
			s.baseKeys[baseKey] = set
		}
	}
	set.refs[id] = struct{}{}
	newLane := false
	if shared {
		set.lanes[spec]++
		newLane = set.lanes[spec] == 1
	} else {
		spec = set.svc.Spec()
	}
	reg := &registration{id: id, sql: sql, set: set, plan: plan, canon: canon, shared: shared, spec: spec}
	s.regs[id] = reg
	s.indexSetsLocked()

	// Roll back: an unpersisted or unservable registration must not serve.
	// A fork snapshot already written stays on disk (snapDir/snapAt describe
	// physical state); it is reused by the next joiner or swept at rotation.
	rollback := func() {
		delete(s.regs, id)
		s.indexSetsLocked()
		delete(set.refs, id)
		if shared {
			if set.lanes[spec]--; set.lanes[spec] == 0 {
				delete(set.lanes, spec)
			}
		}
		if joinedFork {
			set.since = oldSince
		}
		if hadCanon {
			s.sets[canon] = prevCanon
		} else {
			delete(s.sets, canon)
		}
		if created {
			if shared {
				delete(s.states, stateKey)
				if baseKey != "" {
					delete(s.baseKeys, baseKey)
				}
			}
			s.rebindSchemaLocked()
			set.svc.Close()
		}
	}
	if s.dur != nil {
		if err := s.writeManifestLocked(); err != nil {
			rollback()
			return 0, Explain{}, err
		}
	}
	// The member's probe plan is new to the set: (re)install the lane layout.
	// installLanesLocked publishes before returning, so lane reads work the
	// moment Register does; it changes nothing when the plan is the set's
	// own lane.
	if newLane {
		if err := s.installLanesLocked(set); err != nil {
			rollback()
			var merr error
			if s.dur != nil {
				merr = s.writeManifestLocked()
			}
			return 0, Explain{}, errors.Join(err, merr)
		}
	}
	return id, s.explainLocked(reg), nil
}

// installLanesLocked reconciles an executor set's member lanes with its
// members' plans and waits for the carrying publication, so lane reads are
// valid the moment the caller returns. The set's plan lane stays installed
// throughout. Callers hold mu for write.
func (s *Service) installLanesLocked(set *execSet) error {
	specs := make([]engine.ProbeSpec, 0, len(set.lanes))
	for sp := range set.lanes {
		specs = append(specs, sp)
	}
	if err := set.svc.SetProbes(specs); err != nil {
		return err
	}
	return set.svc.Drain()
}

// Unregister removes a query. The executor set is torn down when its last
// registration leaves; while co-tenants remain, the set — its relation
// state, indexes, and the lanes other members read — stays fully intact,
// and only the departing member's lane is retired (once no other member
// shares its probe plan). The unregistration itself is committed under the
// catalog lock before any lane work; a lane-shrink failure is returned (per
// shard, joined) but leaves only an extra installed lane that no reader
// consults — correctness is unaffected, and the next lane change retries the
// shrink.
func (s *Service) Unregister(id QueryID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.follow != nil {
		return ErrReadOnly
	}
	reg, ok := s.regs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownQuery, id)
	}
	set := reg.set
	delete(s.regs, id)
	s.indexSetsLocked()
	delete(set.refs, id)
	laneFreed := false
	if reg.shared {
		if set.lanes[reg.spec]--; set.lanes[reg.spec] == 0 {
			delete(set.lanes, reg.spec)
			laneFreed = true
		}
	}
	var orphan *execSet
	var removedCanons []string
	var removedStates, removedBases []string
	if len(set.refs) == 0 {
		orphan = set
		// Members registered their own canonical forms against this set; drop
		// every alias — canonical, state-identity, and masked-identity — not
		// just the departing member's.
		for c, st := range s.sets {
			if st == orphan {
				removedCanons = append(removedCanons, c)
				delete(s.sets, c)
			}
		}
		for k, st := range s.states {
			if st == orphan {
				removedStates = append(removedStates, k)
				delete(s.states, k)
			}
		}
		for k, st := range s.baseKeys {
			if st == orphan {
				removedBases = append(removedBases, k)
				delete(s.baseKeys, k)
			}
		}
	}
	if s.dur != nil {
		if err := s.writeManifestLocked(); err != nil {
			// Roll back so the manifest and the live table agree.
			s.regs[id] = reg
			s.indexSetsLocked()
			set.refs[id] = struct{}{}
			if reg.shared {
				set.lanes[reg.spec]++
			}
			for _, c := range removedCanons {
				s.sets[c] = set
			}
			for _, k := range removedStates {
				s.states[k] = set
			}
			for _, k := range removedBases {
				s.baseKeys[k] = set
			}
			return err
		}
	}
	if orphan != nil {
		s.rebindSchemaLocked()
		orphan.svc.Close()
		return nil
	}
	if laneFreed {
		// Shrink the lane layout to the surviving members' plans. The
		// departing registration is already committed; a shard that fails to
		// shrink keeps serving one extra (correct, unread) lane, and the
		// joined per-shard errors say which.
		if err := s.installLanesLocked(set); err != nil {
			return fmt.Errorf("catalog: query %d unregistered, but shrinking set %d's probe lanes failed (an unread lane may remain installed): %w", id, set.setID, err)
		}
	}
	return nil
}

// List reports every registered query's EXPLAIN, ordered by QueryID.
func (s *Service) List() []Explain {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Explain, 0, len(s.regs))
	for _, reg := range s.regs {
		out = append(out, s.explainLocked(reg))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of registered queries.
func (s *Service) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.regs)
}

// Default is the lowest live QueryID — the query un-routed wire reads and
// subscriptions address (with rpaiserver -query, the only one).
func (s *Service) Default() (QueryID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	best, ok := QueryID(0), false
	for id := range s.regs {
		if !ok || id < best {
			best, ok = id, true
		}
	}
	return best, ok
}

// regLocked resolves a QueryID. Callers hold mu (read or write) and must
// KEEP holding it across every use of the registration's executor set:
// Unregister tears a set down under the write lock, so releasing the read
// lock before the serve call would race a concurrent unregistration of a
// co-tenant into a use-after-Close.
func (s *Service) regLocked(id QueryID) (*registration, error) {
	if s.closed {
		return nil, ErrClosed
	}
	reg, ok := s.regs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownQuery, id)
	}
	return reg, nil
}

// Batch is one ingest batch decoded into rows bound to the catalog's schema:
// the scratch DecodeRecord fills and ApplyRecord consumes. Reuse one per
// ingesting goroutine (the wire server keeps one per connection) and steady
// ingest allocates nothing per event. The zero value is ready to use.
type Batch struct {
	rec  []byte
	n    int
	dec  engine.RowDecoder
	rows engine.Rows
}

// decode lays rec out as rows of sch.
func (b *Batch) decode(sch *query.Schema, rec []byte) error {
	b.dec.SetSchema(sch)
	b.rows.Reset(sch.Len())
	n, err := b.dec.DecodeRecord(&b.rows, rec)
	b.n = n
	return err
}

// DecodeRecord validates rec and decodes it into b against the catalog's
// current schema. rec is one batch in the WAL's record encoding — per event
// a u32-LE length and an engine.EncodeEvent payload — which is also the wire
// protocol's batch body after its 12-byte header. Only the canonical
// encoding is accepted (engine.RowDecoder), so an accepted rec is exactly
// the record logging the decoded events would write, and ApplyRecord logs it
// as it is. A column no registered query reads is validated and skipped.
// DecodeRecord takes no lock; b aliases rec until ApplyRecord returns.
func (s *Service) DecodeRecord(b *Batch, rec []byte) error {
	b.rec = nil
	if err := b.decode(s.schema.Load(), rec); err != nil {
		b.n = 0
		return err
	}
	b.rec = rec
	return nil
}

// ApplyRecord ingests a batch DecodeRecord accepted into every registered
// query: admission by every set, one WAL record — the bytes received,
// regardless of query count — then a fan-out of the rows to each distinct
// executor set. Batches are serialized so WAL order equals application order.
// With Options.CompactEvery set, the batch that carries the log past the
// bound also rotates the generation before returning.
func (s *Service) ApplyRecord(b *Batch) error {
	if b.n == 0 {
		return nil
	}
	full, err := s.applyRecord(b)
	if full && err == nil {
		err = s.compact()
	}
	return err
}

// ApplyBatch ingests map events: the map edge of DecodeRecord and
// ApplyRecord, through which the events' record encoding takes the same
// path as a wire batch. Map-edge callers share one scratch, so they
// serialize here rather than only at the ingest lock.
func (s *Service) ApplyBatch(events []engine.Event) error {
	if len(events) == 0 {
		return nil
	}
	s.edgeMu.Lock()
	defer s.edgeMu.Unlock()
	e := &s.edge
	e.rec = encodeBatchRecord(e.rec[:0], events)
	if err := s.DecodeRecord(&e.b, e.rec); err != nil {
		return err
	}
	return s.ApplyRecord(&e.b)
}

// edgeBatch is ApplyBatch's scratch: the encoded record and its decoded
// rows.
type edgeBatch struct {
	rec []byte
	b   Batch
}

// applyRecord logs and fans out one batch under the shared ingest lock, and
// reports whether the log has reached Options.CompactEvery.
func (s *Service) applyRecord(b *Batch) (full bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.follow != nil {
		return false, ErrReadOnly
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	// Registrations extend the schema under mu held for write, so it is
	// fixed now. A batch decoded before a registration added a column lacks
	// that column's values — the new set would read 0 — so it is decoded
	// again against the schema every set was bound under.
	sch := s.schema.Load()
	if b.dec.Schema() != sch {
		if err := b.decode(sch, b.rec); err != nil {
			return false, err
		}
	}
	sets := s.setList
	// Admission comes before the log: an event some set's executor cannot
	// maintain would take down its shard worker after the batch is already
	// in the shared WAL, and every recovery would replay it. The whole
	// batch is refused instead — nothing logged, nothing applied.
	for _, set := range sets {
		for i := 0; i < b.n; i++ {
			if aerr := set.prep.Admit(b.rows.At(i)); aerr != nil {
				for _, st := range sets {
					st.rejected.Add(uint64(b.n))
				}
				return false, fmt.Errorf("catalog: batch refused: event %d: %w", i, aerr)
			}
		}
	}
	if s.dur != nil {
		if err := s.appendWAL(b.rec); err != nil {
			return false, err
		}
		s.logged += b.n
	}
	s.records++
	s.applied++
	for _, set := range sets {
		if aerr := set.svc.ApplyRows(sch, &b.rows); aerr != nil {
			set.rejected.Add(uint64(b.n))
			if err == nil {
				err = aerr
			}
		}
	}
	return s.opt.CompactEvery > 0 && s.logged >= s.opt.CompactEvery, err
}

// compact rotates the generation if the log is still past
// Options.CompactEvery once the write lock is held (a concurrent ApplyBatch
// or Checkpoint may have rotated first).
func (s *Service) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.logged < s.opt.CompactEvery {
		return nil
	}
	if err := s.rotateLocked(); err != nil {
		return fmt.Errorf("catalog: auto-compaction: %w", err)
	}
	return nil
}

// indexSetsLocked rebuilds setList from the registrations. Callers hold mu
// for write. It builds a new slice, so a list read earlier (the recovery
// replayer captures one) is never edited under its reader.
func (s *Service) indexSetsLocked() {
	seen := make(map[uint64]*execSet, len(s.regs))
	for _, reg := range s.regs {
		seen[reg.set.setID] = reg.set
	}
	out := make([]*execSet, 0, len(seen))
	for _, set := range seen {
		out = append(out, set)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].setID < out[j].setID })
	s.setList = out
}

// rebindSchemaLocked rebuilds the schema from the live sets after one is torn
// down, so a column only the departed set read stops widening every row
// ingest decodes — registrations are client input, and a register/unregister
// churn over fresh column names must not grow the hot path. Each surviving
// set's admission is bound again to the new layout (its serve.Service keeps
// its own schema and gathers from whichever one ingest hands it). Nothing
// changes when the live sets still read every column. Callers hold mu for
// write, so no batch is between its schema check and its fan-out.
func (s *Service) rebindSchemaLocked() {
	sch := query.NewSchema(s.opt.PartitionBy...)
	for _, set := range s.setList {
		sch = sch.Extend(set.q.Columns()...)
	}
	if sch.Len() == s.schema.Load().Len() {
		return // the live columns are a subset of the old schema: the same set
	}
	preps := make([]*engine.Prepared, len(s.setList))
	for i, set := range s.setList {
		prep, err := engine.Prepare(set.q, sch)
		if err != nil {
			// Unreachable — set.q was prepared against a schema holding the
			// same columns — and harmless: the wider schema stays valid.
			return
		}
		preps[i] = prep
	}
	for i, set := range s.setList {
		set.prep = preps[i]
	}
	s.schema.Store(sch)
}

// encodeBatchRecord frames a batch as one WAL record: a u32-LE
// length-prefixed event encoding per event. Only the map edge (ApplyBatch)
// encodes; a wire batch arrives encoded.
func encodeBatchRecord(buf []byte, events []engine.Event) []byte {
	for _, e := range events {
		off := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = engine.EncodeEvent(buf, e)
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	}
	return buf
}

// Result returns a query's scalar result (the sum across shards): its probe
// lane's total.
func (s *Service) Result(id QueryID) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return 0, err
	}
	v, ok := reg.set.svc.ProbeResult(reg.spec)
	if !ok {
		return 0, fmt.Errorf("catalog: query %d: probe lane %s not published", id, reg.spec)
	}
	return v, nil
}

// ResultGrouped returns a query's grouped results, merged and sorted across
// shards: its probe lane's per-partition values (AVG lanes finish per
// partition — each group its partition's exact average).
func (s *Service) ResultGrouped(id QueryID) ([]engine.GroupResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	g, ok := reg.set.svc.ProbeResultGrouped(reg.spec)
	if !ok {
		return nil, fmt.Errorf("catalog: query %d: probe lane %s not published", id, reg.spec)
	}
	return g, nil
}

// Subscribe attaches a push subscription to one query's delta stream,
// pinned to the query's probe lane, so frames carry its own results.
func (s *Service) Subscribe(id QueryID, opt serve.SubOptions) (*serve.Subscription, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	sp := reg.spec
	opt.Probe = &sp
	return reg.set.svc.Subscribe(opt)
}

// ShardVersions returns one query's per-shard snapshot versions (for
// subscription resume).
func (s *Service) ShardVersions(id QueryID) ([]serve.ShardVersion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	return reg.set.svc.ShardVersions(), nil
}

// Epoch returns a query's service epoch (for subscription resume).
func (s *Service) Epoch(id QueryID) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return 0, err
	}
	return reg.set.svc.Epoch(), nil
}

// ReadOnly reports whether the catalog is a follower (see Follow), on which
// every write and registration call returns ErrReadOnly.
func (s *Service) ReadOnly() bool { return s.follow != nil }

// Shards reports the per-query shard count (identical for every query).
func (s *Service) Shards() int {
	if s.opt.Shards > 0 {
		return s.opt.Shards
	}
	return 1 // serve's default for Shards == 0
}

// ShardStats returns one query's per-shard serving counters.
func (s *Service) ShardStats(id QueryID) ([]serve.ShardStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	return reg.set.svc.Stats(), nil
}

// QueryStats is one registered query's serving counters: events applied and
// rejected by its executor set and the number of live push subscribers.
// Queries sharing a set report the same applied/rejected counts — the work
// was done once.
type QueryStats struct {
	ID          QueryID
	SQL         string
	Strategy    string
	SetID       uint64
	Applied     uint64
	Rejected    uint64
	Subscribers int
}

// Stats reports per-query counters, ordered by QueryID.
func (s *Service) Stats() []QueryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]QueryStats, 0, len(s.regs))
	for _, reg := range s.regs {
		var applied uint64
		for _, sh := range reg.set.svc.Stats() {
			applied += sh.Applied
		}
		out = append(out, QueryStats{
			ID:          reg.id,
			SQL:         reg.sql,
			Strategy:    reg.plan.Strategy,
			SetID:       reg.set.setID,
			Applied:     applied,
			Rejected:    reg.set.rejected.Load(),
			Subscribers: reg.set.svc.Subscribers(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Drain blocks until one query's executor set has applied everything
// enqueued before the call.
func (s *Service) Drain(id QueryID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return err
	}
	return reg.set.svc.Drain()
}

// DrainAll drains every executor set and flushes the shared WAL.
func (s *Service) DrainAll() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	var first error
	for _, set := range s.setList {
		if err := set.svc.Drain(); err != nil && first == nil {
			first = err
		}
	}
	if s.dur != nil {
		s.ingestMu.Lock()
		if err := s.dur.wal.Sync(); err != nil && first == nil {
			first = err
		}
		s.ingestMu.Unlock()
	}
	return first
}

// Close stops every executor set and closes the WAL. Events still queued are
// applied first (serve's Close drains); the catalog stays recoverable. On a
// follower it stops the tailer first and returns the error that stopped it
// early, if any.
func (s *Service) Close() error {
	var first error
	if s.follow != nil {
		first = s.follow.stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, set := range s.setList {
		if err := set.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.dur != nil {
		if err := s.dur.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
