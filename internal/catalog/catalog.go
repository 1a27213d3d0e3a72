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
//   - ApplyBatch executes: the batch is logged ONCE to the catalog's shared
//     WAL — one record per batch regardless of how many queries are
//     registered — then applied to every distinct executor set;
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
// across aggregate terms, because the count index is term-independent. Each
// member's plan becomes a probe lane (serve.SetProbes) evaluated at read
// time against the shared indexes, bit-identical to a dedicated service.
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
// and the executor set serving it. shared marks a probe-eligible query (its
// reads go through spec, its probe plan against the set's shared state);
// a non-shared registration reads the set's base result directly and shares
// only with exact canonical duplicates.
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
//   - baseSpec is the probe plan equivalent to the base executor's Result;
//     while every member's spec equals it, no lanes are installed and reads
//     go through Result directly (fanOn false).
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
	baseSpec engine.ProbeSpec
	svc      *serve.Service
	refs     map[QueryID]struct{}
	since    uint64
	founded  uint64
	lanes    map[engine.ProbeSpec]int
	fanOn    bool
	snapDir  string
	snapAt   uint64
	rejected atomic.Uint64
	// admit is engine.Admission(q): whether the set's executors can maintain
	// an event. ApplyBatch asks every set before it logs a batch.
	admit func(engine.Event) error
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

	// ingestMu serializes ApplyBatch so the WAL record order equals the
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
// anchor the base executor:
//
//   - AVG is not sum-decomposable across partitions (serve rejects it), and
//   - COUNT on the count-free aggindex shape (baseKey == "") plans onto an
//     executor without probe support;
//
// both run the SUM form instead — exact for COUNT, whose term there is the
// constant 1 — and the founder reads its own aggregate as a probe lane.
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
		svc, err := serve.ForQuery(exec, s.opt.PartitionBy, s.opt.serveOptions())
		if err != nil {
			return 0, Explain{}, err
		}
		admit, err := engine.Admission(exec)
		if err != nil {
			return 0, Explain{}, err
		}
		set = &execSet{
			setID:    s.nextSet,
			canon:    canon,
			baseSQL:  sql,
			q:        exec,
			admit:    admit,
			stateKey: stateKey,
			baseKey:  baseKey,
			svc:      svc,
			refs:     make(map[QueryID]struct{}),
			since:    s.records,
			founded:  s.applied,
		}
		if shared {
			set.lanes = make(map[engine.ProbeSpec]int)
			set.baseSpec = spec
			set.baseSpec.Kind = exec.Outer
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
	// moment Register does; it is a no-op while every member still reads the
	// base result.
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

// installLanesLocked reconciles an executor set's probe lanes with its
// members' plans and waits for the carrying publication, so lane reads are
// valid the moment the caller returns. While every member's spec is the base
// executor's own (baseSpec), lanes are torn down and reads go through Result.
// Callers hold mu for write.
func (s *Service) installLanesLocked(set *execSet) error {
	specs := make([]engine.ProbeSpec, 0, len(set.lanes))
	allBase := true
	for sp := range set.lanes {
		specs = append(specs, sp)
		if sp != set.baseSpec {
			allBase = false
		}
	}
	if allBase {
		if !set.fanOn {
			return nil
		}
		if err := set.svc.SetProbes(nil); err != nil {
			return err
		}
		if err := set.svc.Drain(); err != nil {
			return err
		}
		set.fanOn = false
		return nil
	}
	if err := set.svc.SetProbes(specs); err != nil {
		return err
	}
	if err := set.svc.Drain(); err != nil {
		return err
	}
	set.fanOn = true
	return nil
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

// ApplyBatch ingests one batch into every registered query: one WAL record —
// regardless of query count — then a fan-out to each distinct executor set.
// Batches are serialized so WAL order equals application order. With
// Options.CompactEvery set, the batch that carries the log past the bound
// also rotates the generation before returning.
func (s *Service) ApplyBatch(events []engine.Event) error {
	if len(events) == 0 {
		return nil
	}
	full, err := s.applyBatch(events)
	if full && err == nil {
		err = s.compact()
	}
	return err
}

// applyBatch logs and fans out one batch under the shared ingest lock, and
// reports whether the log has reached Options.CompactEvery.
func (s *Service) applyBatch(events []engine.Event) (full bool, err error) {
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
	sets := s.setList
	// Admission comes before the log: an event some set's executor cannot
	// maintain would take down its shard worker after the batch is already
	// in the shared WAL, and every recovery would replay it. The whole
	// batch is refused instead — nothing logged, nothing applied.
	for _, set := range sets {
		for i := range events {
			if aerr := set.admit(events[i]); aerr != nil {
				for _, st := range sets {
					st.rejected.Add(uint64(len(events)))
				}
				return false, fmt.Errorf("catalog: batch refused: event %d: %w", i, aerr)
			}
		}
	}
	if s.dur != nil {
		if err := s.appendWAL(events); err != nil {
			return false, err
		}
		s.logged += len(events)
	}
	s.records++
	s.applied++
	for _, set := range sets {
		if aerr := set.svc.ApplyBatch(events); aerr != nil {
			set.rejected.Add(uint64(len(events)))
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

// encodeBatchRecord frames a batch as one WAL record: a u32-LE
// length-prefixed event encoding per event.
func encodeBatchRecord(buf []byte, events []engine.Event) []byte {
	for _, e := range events {
		off := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = engine.EncodeEvent(buf, e)
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-4))
	}
	return buf
}

// decodeBatchRecord walks one WAL record's events.
func decodeBatchRecord(rec []byte, dec *engine.EventDecoder, fn func(e engine.Event) error) error {
	for len(rec) > 0 {
		if len(rec) < 4 {
			return errors.New("catalog: truncated WAL record")
		}
		n := binary.LittleEndian.Uint32(rec)
		rec = rec[4:]
		if uint64(n) > uint64(len(rec)) {
			return errors.New("catalog: truncated WAL record")
		}
		e, err := dec.Decode(rec[:n])
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
		rec = rec[n:]
	}
	return nil
}

// Result returns a query's scalar result (the sum across shards). A shared
// member whose set serves lanes reads its own probe lane, not the set's base
// result — the base executor runs the founder's plan; while lanes are down
// (every member's plan IS the base plan), Result is the lane.
func (s *Service) Result(id QueryID) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return 0, err
	}
	if reg.shared && reg.set.fanOn {
		v, ok := reg.set.svc.ProbeResult(reg.spec)
		if !ok {
			return 0, fmt.Errorf("catalog: query %d: probe lane %s not published", id, reg.spec)
		}
		return v, nil
	}
	return reg.set.svc.Result(), nil
}

// ResultGrouped returns a query's grouped results, merged and sorted across
// shards. Shared members read their probe lane's per-partition values (AVG
// lanes finish per partition — each group its partition's exact average).
func (s *Service) ResultGrouped(id QueryID) ([]engine.GroupResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	if reg.shared && reg.set.fanOn {
		g, ok := reg.set.svc.ProbeResultGrouped(reg.spec)
		if !ok {
			return nil, fmt.Errorf("catalog: query %d: probe lane %s not published", id, reg.spec)
		}
		return g, nil
	}
	return reg.set.svc.ResultGrouped(), nil
}

// Subscribe attaches a push subscription to one query's delta stream. A
// shared member's subscription is pinned to its probe lane, so frames carry
// the member's own results.
func (s *Service) Subscribe(id QueryID, opt serve.SubOptions) (*serve.Subscription, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reg, err := s.regLocked(id)
	if err != nil {
		return nil, err
	}
	if reg.shared && reg.set.fanOn {
		sp := reg.spec
		opt.Probe = &sp
	}
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
