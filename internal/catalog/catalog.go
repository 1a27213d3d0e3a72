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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
// before a data directory is touched. BatchSize is each shard's group-commit
// bound: zero selects serve's default of 4 096 events per commit.
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
//   - founded is the catalog's lifetime batch count when the set was
//     created (the member history epoch Explain reports as StateSince);
//     since is a current-generation WAL record index: the set's on-disk
//     starting state (snapshot or empty) is current through it, and
//     recovery replays records [since, records) into the set. A
//     retroactive join advances since by forking the live state into a
//     snapshot at snapDir (taken at record index snapAt).
//
// refs, lanes, prep and bound are derived from the registrations and written
// only by reindexLocked.
type execSet struct {
	setID    uint64
	baseSQL  string
	q        *query.Query
	cols     []string // q.Columns(): the slots the set's rows need
	stateKey string
	baseKey  string
	svc      *serve.Service
	since    uint64
	founded  uint64
	snapDir  string
	snapAt   uint64
	rejected atomic.Uint64
	// refs lists the members, in QueryID order.
	refs []QueryID
	// lanes is the shared members' distinct probe plans (nil for a private
	// set): the member lanes installed beside the set's plan lane.
	lanes []engine.ProbeSpec
	// prep is q bound to bound, a version of the catalog's schema in which
	// q's columns sit where they sit in the current one; its Admit is the
	// check whether the set's executors can maintain an event, which ingest
	// asks every set before it logs a batch.
	prep  *engine.Prepared
	bound *query.Schema
}

// joinKey is one entry of the derived join table: a canonical form, a state
// identity (engine.StateKey) or a count-side base identity, by kind.
type joinKey struct {
	kind uint8
	key  string
}

const (
	joinCanon = iota // a canonical form: the set its live members share
	joinState        // a state identity: the newest live shared set with it
	joinBase         // a count-side base identity: likewise
)

// Service is the catalog. All public methods are safe for concurrent use.
type Service struct {
	opt Options

	// mu guards the registration tables. Ingest holds it for read, Register/
	// Unregister/Checkpoint for write, so a batch never interleaves with a
	// registration change (the alignment that keeps `since` exact).
	mu sync.RWMutex
	// regs is the catalog's one registration state — what the CATALOG
	// manifest persists. Everything else about registrations is derived from
	// it by reindexLocked: setList, join, schema, and each set's members,
	// lanes and admission binding.
	regs    map[QueryID]*registration
	nextID  QueryID
	nextSet uint64
	closed  bool
	// setList is every live executor set once (registrations can share
	// sets), in set-ID order for deterministic fan-out: what ingest, drain
	// and rotation walk.
	setList []*execSet
	// parts is the partition dictionary every set takes its partition ids
	// from: ingest resolves each event's partition once, under ingestMu, and
	// every set routes by the ids.
	parts *serve.Partitions
	// join is where Register looks a new query up (see joinKey).
	join map[joinKey]*execSet
	// admit holds one admission binding per distinct check among the live
	// sets (engine.Prepared.AdmitKey), in set-ID order of first use: what
	// ingest runs over every batch.
	admit []*engine.Prepared

	// schema is the catalog's row layout: the partition columns, then every
	// column a live set's query reads, in set-ID order. It changes only under
	// mu held for write; ingest decodes against the version it loads and,
	// holding mu for read, decodes again if the schema changed in between
	// (see ApplyRecord).
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
	// recovery is what building the catalog from its directory cost, set
	// before Recover or Follow returns and never written again.
	recovery RecoveryStats
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
	s := &Service{opt: opt, regs: make(map[QueryID]*registration), nextID: 1, nextSet: 1,
		parts: serve.NewPartitions(opt.PartitionBy)}
	if err := s.reindexLocked(); err != nil {
		return nil, err
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
// Set resolution, most to least specific: an exact canonical match (a live
// member with the same canonical form) joins its set outright; a
// probe-eligible query joins the newest live set with the same state
// identity; a COUNT(*) variant additionally joins the newest live set whose
// masked identity matches (the count index does not depend on the aggregate
// term). The lookup is derived from the live registrations alone
// (reindexLocked), so a restart never moves where a query lands. Joining is
// retroactive — the set's ingest history is the member's history (a late
// variant is the family's variant, not a fresh query) — and on a durable
// catalog a late join first forks the set's live state into a checkpoint
// snapshot, so recovery restores the member's set without replaying the
// family's earlier WAL records. Only when nothing matches is a fresh set
// founded.
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

	set := s.join[joinKey{joinCanon, canon}]
	if set == nil && shared {
		set = s.join[joinKey{joinState, stateKey}]
		if set == nil && spec.Kind == query.Count && baseKey != "" {
			set = s.join[joinKey{joinBase, baseKey}]
		}
	}
	created := set == nil
	joinedFork := false
	var oldSince uint64
	if created {
		svc, err := serve.ForPartitions(s.parts, exec, s.opt.serveOptions())
		if err != nil {
			return 0, Explain{}, err
		}
		set = &execSet{
			setID:    s.nextSet,
			baseSQL:  sql,
			q:        exec,
			cols:     exec.Columns(),
			stateKey: stateKey,
			baseKey:  baseKey,
			svc:      svc,
			since:    s.records,
			founded:  s.applied,
		}
		s.nextSet++
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
	if !shared {
		spec = set.svc.Spec()
	}
	reg := &registration{id: id, sql: sql, set: set, plan: plan, canon: canon, shared: shared, spec: spec}
	s.regs[id] = reg
	// The derivation installs the member's lane when its probe plan is new to
	// the set, and publishes before returning, so lane reads work the moment
	// Register does.
	err = s.reindexLocked()
	if err == nil && s.dur != nil {
		err = s.writeManifestLocked()
	}
	if err != nil {
		// Roll back: an unpersisted or unservable registration must not serve.
		// A fork snapshot already written stays on disk (snapDir/snapAt
		// describe physical state); it is reused by the next joiner or swept
		// at rotation.
		delete(s.regs, id)
		if joinedFork {
			set.since = oldSince
		}
		err = errors.Join(err, s.reindexLocked())
		if created {
			set.svc.Close()
		}
		return 0, Explain{}, err
	}
	return id, s.explainLocked(reg), nil
}

// Unregister removes a query. The executor set is torn down when its last
// registration leaves; while co-tenants remain, the set — its relation
// state, indexes, and the lanes other members read — stays fully intact,
// and only the departing member's lane is retired (once no other member
// shares its probe plan). The unregistration itself is committed under the
// catalog lock before any lane work; a lane-shrink failure is returned (per
// shard, joined) but leaves only an extra installed lane that no reader
// consults — correctness is unaffected, and the next registration change
// retries the shrink.
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
	delete(s.regs, id)
	if s.dur != nil {
		if err := s.writeManifestLocked(); err != nil {
			// Nothing has been derived from the removal yet.
			s.regs[id] = reg
			return err
		}
	}
	err := s.reindexLocked()
	if !slices.Contains(s.setList, reg.set) { // its last member left
		reg.set.svc.Close()
	}
	if err != nil {
		return fmt.Errorf("catalog: query %d unregistered, but reinstalling set %d's probe lanes failed (an unread lane may remain installed): %w", id, reg.set.setID, err)
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
	rt   serve.Routing
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
	// batch is refused instead — nothing logged, nothing applied. Sets with
	// the same checks share one pass.
	for _, prep := range s.admit {
		for i := 0; i < b.n; i++ {
			if aerr := prep.Admit(b.rows.At(i)); aerr != nil {
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
	// Each event's partition is resolved once for every set, and not at all
	// while no set is live: the dictionary only grows by keys some set
	// ingests. Route fails only on a schema lacking a partition column,
	// which the catalog's never does.
	if len(sets) > 0 {
		if err := s.parts.Route(sch, &b.rows, &b.rt); err != nil {
			return false, err
		}
	}
	for _, set := range sets {
		if aerr := set.svc.ApplyRows(sch, &b.rows, &b.rt); aerr != nil {
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

// reindexLocked derives every registration table from s.regs:
//
//   - setList, the live sets in set-ID order;
//   - each set's members (refs) and their distinct probe plans (lanes);
//   - the join table: a canonical form maps to its live members' set, a
//     state identity and a count-side base identity to the newest live
//     shared set carrying it;
//   - the schema, the partition columns then each live set's columns in
//     set-ID order, kept as the same pointer when its columns are unchanged;
//   - each set's admission binding, prepared again only when its columns'
//     slots moved, and the admission groups: one binding per distinct
//     check (engine.Prepared.AdmitKey), which ingest runs once per batch
//     for every set in the group.
//
// Register, Unregister, the rollback of a registration, recovery and a
// follower's rebuild all call it, so where a registration lands depends on
// the live registrations alone, never on the history that produced them.
// Every table is rebuilt, never edited, so a list read earlier (the recovery
// replayer captures one) stays as it was. Last, each set whose derived lane
// set differs from the installed one has its lanes reinstalled; the error
// joins the installation failures, and a set that failed is retried by the
// next derivation. A failure to prepare (unreachable: a set's query was
// prepared when the set was founded, and the schema holds its columns)
// returns before anything changes. Callers hold mu for write.
func (s *Service) reindexLocked() error {
	members := make(map[*execSet][]*registration)
	for _, reg := range s.regs {
		members[reg.set] = append(members[reg.set], reg)
	}
	sets := make([]*execSet, 0, len(members))
	for set := range members {
		sets = append(sets, set)
	}
	slices.SortFunc(sets, func(a, b *execSet) int { return cmp.Compare(a.setID, b.setID) })
	sch := query.NewSchema(s.opt.PartitionBy...)
	for _, set := range sets {
		sch = sch.Extend(set.cols...)
	}
	if old := s.schema.Load(); old != nil && slices.Equal(old.Cols(), sch.Cols()) {
		sch = old
	}
	preps := make([]*engine.Prepared, len(sets))
	for i, set := range sets {
		preps[i] = set.prep
		if set.prep == nil || slotsMoved(set.cols, set.bound, sch) {
			prep, err := engine.Prepare(set.q, sch)
			if err != nil {
				return fmt.Errorf("catalog: set %d: %w", set.setID, err)
			}
			preps[i] = prep
		}
	}

	join := make(map[joinKey]*execSet, len(s.regs)+2*len(sets))
	newest := func(k joinKey, set *execSet) {
		if prev, ok := join[k]; !ok || prev.setID < set.setID {
			join[k] = set
		}
	}
	var reinstall []*execSet
	for i, set := range sets {
		regs := members[set]
		slices.SortFunc(regs, func(a, b *registration) int { return cmp.Compare(a.id, b.id) })
		refs := make([]QueryID, len(regs))
		var lanes []engine.ProbeSpec
		for j, reg := range regs {
			refs[j] = reg.id
			newest(joinKey{joinCanon, reg.canon}, set)
			if reg.shared && !slices.Contains(lanes, reg.spec) {
				lanes = append(lanes, reg.spec)
			}
		}
		if lanes != nil {
			newest(joinKey{joinState, set.stateKey}, set)
			if set.baseKey != "" {
				newest(joinKey{joinBase, set.baseKey}, set)
			}
		}
		if !sameLanes(lanes, set.lanes) {
			reinstall = append(reinstall, set)
		}
		set.refs, set.lanes = refs, lanes
		if preps[i] != set.prep {
			set.prep, set.bound = preps[i], sch
		}
	}
	admit := make([]*engine.Prepared, 0, len(sets))
	seen := make(map[string]bool, len(sets))
	for _, set := range sets {
		if k := set.prep.AdmitKey(); !seen[k] {
			seen[k] = true
			admit = append(admit, set.prep)
		}
	}
	s.setList, s.join, s.admit = sets, join, admit
	s.schema.Store(sch)

	// SetProbes keeps the set's plan lane installed throughout; the drain
	// waits for the publication carrying the new lanes, so lane reads are
	// valid the moment the caller returns.
	var errs []error
	for _, set := range reinstall {
		err := set.svc.SetProbes(set.lanes)
		if err == nil {
			err = set.svc.Drain()
		}
		if err != nil {
			set.lanes = nil // not what is installed: the next derivation retries
			errs = append(errs, fmt.Errorf("set %d: %w", set.setID, err))
		}
	}
	return errors.Join(errs...)
}

// slotsMoved reports whether any of cols sits in a different slot of b than
// of a.
func slotsMoved(cols []string, a, b *query.Schema) bool {
	if a == b {
		return false
	}
	for _, c := range cols {
		i, _ := a.Slot(c)
		j, _ := b.Slot(c)
		if i != j {
			return true
		}
	}
	return false
}

// sameLanes reports whether two lists of distinct probe plans hold the same
// plans, in any order.
func sameLanes(a, b []engine.ProbeSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for _, sp := range a {
		if !slices.Contains(b, sp) {
			return false
		}
	}
	return true
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
