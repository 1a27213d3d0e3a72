package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// On-disk layout of a durable catalog directory (generation G):
//
//	CATALOG                 registration manifest (tmp+rename, CRC record)
//	g<G>-shard-0.wal        the shared ingest WAL: ONE record per applied batch
//	g<G>/s<setID>/          one standalone serve checkpoint per executor set
//	g<G>/s<setID>-f<R>/     a fork snapshot of the set, taken at WAL record R
//
// The CATALOG manifest maps every registered QueryID to its SQL, its
// executor-set ID, its probe plan, and `since` — the WAL record index the
// set's snapshot state is current through. Recovery re-registers everything
// from the manifest, restores each set from its snapshot directory, then
// replays the shared WAL: record i goes to every set with since <= i, which
// is exactly the fan-out the live catalog performed. A set registered after
// the last checkpoint has no snapshot directory and recovers from its WAL
// suffix alone.
//
// Fork snapshots are how a late joiner attaches durably: the set's live
// state is checkpointed under g<G>/s<setID>-f<R> (R = the record count at
// the join), and the manifest swap that commits the new member also advances
// the set's since to R — so recovery restores the joined set from the fork
// instead of replaying the family's earlier records. The record index in the
// directory name makes the fork inert until a manifest references it: a
// crash between the fork and the manifest swap recovers through the old
// manifest, which points at the old state, and the orphaned fork directory
// is swept with its generation at the next rotation.
//
// Checkpoint rotates generations in a crash-safe order: drain and snapshot
// every set under g<G+1>/, all sets at once, and wait for every one (cloning
// a set's current fork snapshot with checkpoint.Fork instead of
// re-serializing, when one is current), create the g<G+1> WAL, swap the
// CATALOG manifest (the commit point), then delete generation G. A crash
// anywhere before the swap recovers from G; after it, from G+1.
// Options.CompactEvery triggers the same rotation from ingest.
//
// This is the only log, manifest and recovery routine in the repository:
// Recover is restore (manifest + snapshots) + WAL replay + rotation, and a
// follower (Follow, follow.go) is restore + a tail over the same WAL.

const (
	// catalogName is the manifest file.
	catalogName = "CATALOG"
	// catalogMagic brands the manifest; catalogVersion is the one record
	// format this build reads and writes (a directory written in any other is
	// refused by name, see decodeManifest).
	catalogMagic   = "RPCG"
	catalogVersion = 3
	// entryShared marks an entry whose query reads a probe lane of a shared
	// state set; its plan fields (constant, kind, residual) are meaningful.
	entryShared = 1 << 0
	// entryResidual marks an entry whose probe plan carries a residual
	// partition-column conjunct.
	entryResidual = 1 << 1
	// maxManifestQueries bounds decode allocation for corrupt files.
	maxManifestQueries = 1 << 20
)

// durableState is the catalog's persistence handle.
type durableState struct {
	dir string
	gen uint64
	wal *checkpoint.WALWriter
}

// catEntry is one manifest line: the registration (id, sql), its set (setID,
// since, baseSQL, founded) and its probe plan (shared, spec).
type catEntry struct {
	id      QueryID
	setID   uint64
	since   uint64
	sql     string
	baseSQL string
	founded uint64
	shared  bool
	spec    engine.ProbeSpec
}

// manifest is the decoded CATALOG file.
type manifest struct {
	gen, nextID, nextSet, appliedBase uint64
	partitionBy                       []string
	entries                           []catEntry
}

func walPath(dir string, gen uint64) string { return checkpoint.WALPath(dir, gen, 0) }

func setDir(dir string, gen, setID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("g%d", gen), fmt.Sprintf("s%d", setID))
}

// forkDir names a set's fork snapshot taken at WAL record index rec. The
// index in the name keys the snapshot to the manifest state that references
// it, so a stale or orphaned fork can never be confused for the set's
// rotation snapshot.
func forkDir(dir string, gen, setID, rec uint64) string {
	return filepath.Join(dir, fmt.Sprintf("g%d", gen), fmt.Sprintf("s%d-f%d", setID, rec))
}

// initDurable creates a fresh durable catalog directory: generation-1 WAL
// plus an empty manifest. An existing manifest is rejected — recovering an
// existing directory is Recover's job, and silently truncating its WAL here
// would destroy it.
func (s *Service) initDurable() error {
	dir := s.opt.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, catalogName)); err == nil {
		return fmt.Errorf("catalog: %s already has a CATALOG manifest; use Recover", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := refuseLegacyDir(dir); err != nil {
		return err
	}
	const gen = 1
	wal, err := checkpoint.CreateWAL(walPath(dir, gen), checkpoint.Header{Gen: gen, Shard: 0, ShardCount: 1})
	if err != nil {
		return err
	}
	s.dur = &durableState{dir: dir, gen: gen, wal: wal}
	if err := s.writeManifestLocked(); err != nil {
		wal.Close()
		s.dur = nil
		return err
	}
	return nil
}

// refuseLegacyDir reports a directory written by the retired single-query
// serving mode (a top-level checkpoint MANIFEST beside per-shard WALs, no
// CATALOG). Starting a catalog generation beside those files would silently
// abandon the state they hold.
func refuseLegacyDir(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, checkpoint.ManifestName)); err == nil {
		return fmt.Errorf("catalog: %s holds a single-query data directory (top-level %s and g*-shard-*.wal, no %s), a format this build no longer reads; replay its source stream into a fresh directory",
			dir, checkpoint.ManifestName, catalogName)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// appendWAL logs one batch record as received and flushes it to the OS.
// Callers hold ingestMu, so record order is application order.
func (s *Service) appendWAL(rec []byte) error {
	if err := s.dur.wal.Append(rec); err != nil {
		return err
	}
	return s.dur.wal.Flush()
}

// forkSetLocked checkpoints a set's live state as a fork snapshot at the
// current WAL record index, recording it in snapDir/snapAt. A snapshot
// already current (a previous joiner forked at this index, or the set just
// rotated and nothing arrived since) is reused as-is; a leftover directory
// from a failed attempt is replaced. Callers hold mu for write and commit
// the fork by writing a manifest whose since points at it.
func (s *Service) forkSetLocked(set *execSet) error {
	if set.snapDir != "" && set.snapAt == s.records {
		return nil
	}
	dst := forkDir(s.dur.dir, s.dur.gen, set.setID, s.records)
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := set.svc.Drain(); err != nil {
		return err
	}
	if err := set.svc.Checkpoint(dst); err != nil {
		return err
	}
	set.snapDir, set.snapAt = dst, s.records
	return nil
}

// manifestEntriesLocked snapshots the registration table for persisting.
// Callers hold mu.
func (s *Service) manifestEntriesLocked() []catEntry {
	entries := make([]catEntry, 0, len(s.regs))
	for _, reg := range s.regs {
		entries = append(entries, catEntry{
			id: reg.id, setID: reg.set.setID, since: reg.set.since, sql: reg.sql,
			baseSQL: reg.set.baseSQL, founded: reg.set.founded,
			shared: reg.shared,
		})
		if reg.shared {
			entries[len(entries)-1].spec = reg.spec
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	return entries
}

// writeManifestLocked persists the current registration table. Callers hold
// mu for write. appliedBase — the lifetime batch count before the current
// generation's WAL — is constant between rotations, so any manifest write
// within a generation records the same value.
func (s *Service) writeManifestLocked() error {
	return writeCatalogFile(s.dur.dir, manifest{gen: s.dur.gen, nextID: uint64(s.nextID), nextSet: s.nextSet,
		appliedBase: s.applied - s.records, partitionBy: s.opt.PartitionBy, entries: s.manifestEntriesLocked()})
}

// writeCatalogFile writes the CATALOG manifest: magic, then one CRC-framed
// record, installed by tmp+rename+sync so readers see the old manifest or
// the new one, never a torn mix.
func writeCatalogFile(dir string, m manifest) error {
	var rec bytes.Buffer
	e := checkpoint.NewEncoder(&rec)
	e.U32(catalogVersion)
	e.U64(m.gen)
	e.U64(m.nextID)
	e.U64(m.nextSet)
	e.U64(m.appliedBase)
	e.U32(uint32(len(m.partitionBy)))
	for _, c := range m.partitionBy {
		e.Str(c)
	}
	e.U32(uint32(len(m.entries)))
	for _, ent := range m.entries {
		e.U64(uint64(ent.id))
		e.U64(ent.setID)
		e.U64(ent.since)
		e.Str(ent.sql)
		var flags uint8
		if ent.shared {
			flags |= entryShared
		}
		if ent.spec.Residual {
			flags |= entryResidual
		}
		e.U8(flags)
		e.F64(ent.spec.Const)
		e.Str(ent.baseSQL)
		e.U8(uint8(ent.spec.Kind))
		e.Str(ent.spec.ResidualCol)
		e.U8(uint8(ent.spec.ResidualOp))
		e.F64(ent.spec.ResidualVal)
		e.U64(ent.founded)
	}
	if err := e.Err(); err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, catalogName), func(w io.Writer) error {
		if _, err := io.WriteString(w, catalogMagic); err != nil {
			return err
		}
		return checkpoint.WriteRecord(w, rec.Bytes())
	}); err != nil {
		return err
	}
	return catalogSyncDir(dir)
}

// readCatalogFile loads and validates the CATALOG manifest, returning the
// raw bytes too (a follower compares them to notice a manifest swap).
func readCatalogFile(dir string) (manifest, []byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, catalogName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if lerr := refuseLegacyDir(dir); lerr != nil {
				return manifest{}, nil, lerr
			}
		}
		return manifest{}, nil, err
	}
	m, err := decodeManifest(b)
	if err != nil {
		return manifest{}, nil, fmt.Errorf("catalog: %s: %w", filepath.Join(dir, catalogName), err)
	}
	return m, b, nil
}

// decodeManifest parses CATALOG file bytes.
func decodeManifest(b []byte) (manifest, error) {
	var m manifest
	if len(b) < len(catalogMagic) || string(b[:len(catalogMagic)]) != catalogMagic {
		return m, errors.New("bad CATALOG magic")
	}
	rec, err := checkpoint.ReadRecord(bytes.NewReader(b[len(catalogMagic):]))
	if err != nil {
		return m, fmt.Errorf("CATALOG manifest: %w", err)
	}
	d := checkpoint.NewDecoder(bytes.NewReader(rec))
	if v := d.U32(); d.Err() == nil && v != catalogVersion {
		return m, fmt.Errorf("CATALOG manifest is format version %d; this build reads only version %d (versions 1 and 2 were retired with the single-query serving mode)", v, catalogVersion)
	}
	m.gen = d.U64()
	m.nextID = d.U64()
	m.nextSet = d.U64()
	m.appliedBase = d.U64()
	np := d.U32()
	if d.Err() == nil && np > maxManifestQueries {
		return m, fmt.Errorf("implausible partition-column count %d", np)
	}
	for i := uint32(0); i < np && d.Err() == nil; i++ {
		m.partitionBy = append(m.partitionBy, d.Str())
	}
	nq := d.U32()
	if d.Err() == nil && nq > maxManifestQueries {
		return m, fmt.Errorf("implausible query count %d", nq)
	}
	for i := uint32(0); i < nq && d.Err() == nil; i++ {
		ent := catEntry{
			id:    QueryID(d.U64()),
			setID: d.U64(),
			since: d.U64(),
			sql:   d.Str(),
		}
		flags := d.U8()
		ent.spec.Const = d.F64()
		ent.baseSQL = d.Str()
		ent.spec.Kind = query.AggKind(d.U8())
		ent.spec.ResidualCol = d.Str()
		ent.spec.ResidualOp = query.CmpOp(d.U8())
		ent.spec.ResidualVal = d.F64()
		ent.founded = d.U64()
		ent.shared = flags&entryShared != 0
		ent.spec.Residual = flags&entryResidual != 0
		// A restored shared entry reads its lane through this spec: an
		// unknown kind would kill a shard worker at the first ingest, and an
		// unknown residual operator would gate every partition out.
		switch {
		case d.Err() != nil:
		case ent.spec.Kind > query.Avg:
			return m, fmt.Errorf("CATALOG manifest: query %d has probe kind %d, not SUM, COUNT or AVG", ent.id, ent.spec.Kind)
		case ent.spec.Residual && ent.spec.ResidualOp > query.Gt:
			return m, fmt.Errorf("CATALOG manifest: query %d has residual operator %d, not one of < <= = >= >", ent.id, ent.spec.ResidualOp)
		}
		if !ent.spec.Residual {
			ent.spec.ResidualCol, ent.spec.ResidualOp, ent.spec.ResidualVal = "", 0, 0
		}
		m.entries = append(m.entries, ent)
	}
	if err := d.Err(); err != nil {
		return m, fmt.Errorf("CATALOG manifest: %w", err)
	}
	return m, nil
}

func catalogSyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Checkpoint rotates the catalog to a new generation: every executor set is
// drained and snapshotted, a fresh WAL starts, and the manifest swap commits
// the rotation (the old generation is removed afterwards). Replay cost after
// a crash resets to zero.
func (s *Service) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.follow != nil {
		return ErrReadOnly
	}
	if s.dur == nil {
		return ErrNotDurable
	}
	return s.rotateLocked()
}

// rotateLocked performs the generation rotation. Callers hold mu for write
// (so no ingest or registration is in flight). The recovery path calls it
// with no WAL writer open (s.dur.wal nil). A set whose newest snapshot —
// typically a late joiner's fork — already reflects every WAL record is
// carried forward by cloning that snapshot (checkpoint.Fork) instead of
// re-serializing the live executors.
func (s *Service) rotateLocked() error {
	dir, oldGen := s.dur.dir, s.dur.gen
	newGen := oldGen + 1
	// A failed earlier rotation may have left a partial next generation;
	// nothing references it (its manifest swap never happened), so clear it.
	if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", newGen))); err != nil {
		return err
	}
	// Every set drains and snapshots at once — each has shard workers of its
	// own, and their files' fsyncs overlap — and the rotation waits for all
	// of them, so when one fails no goroutine is left writing under the
	// new generation, which nothing references until the manifest swap.
	sets := s.setList
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rotateSnapshot(s, set, setDir(dir, newGen, set.setID))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	newWAL, err := checkpoint.CreateWAL(walPath(dir, newGen), checkpoint.Header{Gen: newGen, Shard: 0, ShardCount: 1})
	if err != nil {
		return err
	}
	// The manifest swap is the commit point: all sets are current through the
	// (empty) new WAL, so every since is 0, and the lifetime batch counter
	// folds the rotated-away records into appliedBase.
	entries := s.manifestEntriesLocked()
	for i := range entries {
		entries[i].since = 0
	}
	if err := writeCatalogFile(dir, manifest{gen: newGen, nextID: uint64(s.nextID), nextSet: s.nextSet,
		appliedBase: s.applied, partitionBy: s.opt.PartitionBy, entries: entries}); err != nil {
		newWAL.Close()
		os.Remove(walPath(dir, newGen))
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", newGen)))
		return err
	}
	if s.dur.wal != nil {
		s.dur.wal.Close()
	}
	s.dur.wal = newWAL
	s.dur.gen = newGen
	s.records = 0
	s.logged = 0
	for _, set := range sets {
		set.since = 0
		set.snapDir = setDir(dir, newGen, set.setID)
		set.snapAt = 0
	}
	os.Remove(walPath(dir, oldGen))
	os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", oldGen)))
	return nil
}

// rotateSnapshot writes one set's rotation snapshot (Service.snapshotSet);
// a variable so a test can fail one set's snapshot mid-rotation.
var rotateSnapshot = (*Service).snapshotSet

// snapshotSet drains set and writes its rotation snapshot to dst: a clone of
// its newest snapshot when that already reflects every WAL record, else a
// checkpoint of its live executors. Callers hold mu for write; sets rotate
// concurrently, and each reads only its own set and the WAL position.
func (s *Service) snapshotSet(set *execSet, dst string) error {
	if err := set.svc.Drain(); err != nil {
		return err
	}
	if set.snapDir != "" && set.snapAt == s.records && set.since == s.records {
		return checkpoint.Fork(set.snapDir, dst)
	}
	return set.svc.Checkpoint(dst)
}

// Recover rebuilds a durable catalog from its directory: restore brings back
// the registrations and each executor set's snapshot, the shared WAL replays
// into every set that had not yet seen its records, and a generation rotation
// ends it, so the next crash replays only what follows. opt.Dir names the
// directory; opt.PartitionBy, when set, must match the persisted columns.
// Recovery reports what each phase cost.
func Recover(opt Options) (*Service, error) {
	start := time.Now()
	s, m, _, err := restore(opt)
	if err != nil {
		return nil, err
	}
	restored := time.Now()
	rp := s.replayer()
	if _, _, err = checkpoint.ReadWAL(walPath(opt.Dir, m.gen), rp.record); err == nil {
		err = rp.flush()
	}
	if err != nil {
		s.closeSets()
		return nil, fmt.Errorf("catalog: WAL replay: %w", err)
	}
	if err := s.DrainAll(); err != nil {
		s.closeSets()
		return nil, err
	}
	replayed := time.Now()
	// Rotate to a fresh generation so the replayed WAL is compacted away.
	// CreateWAL truncates, so the old WAL must never be reopened for append.
	s.dur = &durableState{dir: opt.Dir, gen: m.gen}
	if err := s.rotateLocked(); err != nil {
		s.closeSets()
		return nil, err
	}
	s.recovery = rp.stats(restored.Sub(start), replayed.Sub(restored), time.Since(replayed))
	return s, nil
}

// RecoveryStats is what building a catalog from its data directory cost, by
// phase: Restore (the manifest read, every registration planned again and
// every set's snapshot restored), Replay (the shared WAL read and applied,
// until every set has published it) and Rotate (the generation rotation that
// ends Recover; zero for a follower). Records and Events count the WAL
// records replayed and the events they held, Flushes the coalesced batches
// they were applied in.
type RecoveryStats struct {
	Restore, Replay, Rotate  time.Duration
	Records, Events, Flushes uint64
}

// Recovery reports what building the catalog from its directory cost:
// Recover's phases, or a follower's boot (Follow). It is the zero value for a
// catalog New built.
func (s *Service) Recovery() RecoveryStats { return s.recovery }

// restore is the part of recovery a primary and a follower share: it reads
// the CATALOG manifest, re-registers every query, and restores each executor
// set from its snapshot (a fork snapshot at the set's since when one exists,
// else the rotation snapshot, else empty — a set registered after the last
// checkpoint lives in the WAL suffix alone). The returned service has
// replayed nothing and has no persistence handle yet; raw is the manifest as
// read.
func restore(opt Options) (s *Service, m manifest, raw []byte, err error) {
	if opt.Dir == "" {
		return nil, m, nil, errors.New("catalog: recovery requires Options.Dir")
	}
	if err := opt.serveOptions().Validate(); err != nil {
		return nil, m, nil, err
	}
	if m, raw, err = readCatalogFile(opt.Dir); err != nil {
		return nil, m, nil, err
	}
	if len(opt.PartitionBy) > 0 && !slices.Equal(opt.PartitionBy, m.partitionBy) {
		return nil, m, nil, fmt.Errorf("catalog: partition columns %v do not match persisted %v", opt.PartitionBy, m.partitionBy)
	}
	opt.PartitionBy = m.partitionBy
	s = &Service{
		opt:     opt,
		regs:    make(map[QueryID]*registration),
		nextID:  max(QueryID(m.nextID), 1),
		nextSet: max(m.nextSet, 1),
		applied: m.appliedBase,
		parts:   serve.NewPartitions(m.partitionBy),
	}

	// Rebuild executor sets: group manifest entries by set, restore each set
	// from its snapshot directory when one exists.
	bySet := make(map[uint64][]catEntry)
	for _, ent := range m.entries {
		bySet[ent.setID] = append(bySet[ent.setID], ent)
	}
	var restored []*execSet // what a failure closes
	fail := func(err error) (*Service, manifest, []byte, error) {
		for _, set := range restored {
			set.svc.Close()
		}
		return nil, m, nil, err
	}
	serveOpt := opt.serveOptions()
	for sid, ents := range bySet {
		// Parse and plan every member: one set's members have distinct SQL
		// (same maintained state, different probe plans), so a per-entry plan
		// is required.
		qs := make([]*query.Query, len(ents))
		plans := make([]engine.Plan, len(ents))
		for i, ent := range ents {
			q, err := sqlparse.Parse(ent.sql)
			if err != nil {
				return fail(fmt.Errorf("catalog: manifest query %d: %w", ent.id, err))
			}
			plan, err := engine.Describe(q)
			if err != nil {
				return fail(fmt.Errorf("catalog: manifest query %d: %w", ent.id, err))
			}
			qs[i], plans[i] = q, plan
		}
		// The set's executors run its founder's query, which every member's
		// entry records.
		baseSQL := ents[0].baseSQL
		bq, err := sqlparse.Parse(baseSQL)
		if err != nil {
			return fail(fmt.Errorf("catalog: set %d founding query: %w", sid, err))
		}
		exec, stateKey, baseKey, _, setShared := deriveState(bq, m.partitionBy)
		sd := setDir(opt.Dir, m.gen, sid)
		fd := forkDir(opt.Dir, m.gen, sid, ents[0].since)
		var svc *serve.Service
		snapDir, snapAt := "", uint64(0)
		if _, statErr := os.Stat(fd); statErr == nil {
			// A late joiner forked this set at record `since`; the fork is the
			// newest committed state.
			svc, err = serve.RecoverForPartitions(fd, s.parts, exec, serveOpt)
			snapDir, snapAt = fd, ents[0].since
		} else if !errors.Is(statErr, os.ErrNotExist) {
			err = statErr
		} else if _, statErr := os.Stat(sd); statErr == nil {
			svc, err = serve.RecoverForPartitions(sd, s.parts, exec, serveOpt)
			snapDir, snapAt = sd, ents[0].since
		} else if errors.Is(statErr, os.ErrNotExist) {
			// Registered after the last checkpoint: state lives in the WAL
			// suffix alone.
			svc, err = serve.ForPartitions(s.parts, exec, serveOpt)
		} else {
			err = statErr
		}
		if err != nil {
			return fail(fmt.Errorf("catalog: recover set %d: %w", sid, err))
		}
		set := &execSet{setID: sid, baseSQL: baseSQL, q: exec, cols: exec.Columns(),
			stateKey: stateKey, baseKey: baseKey, svc: svc,
			since: ents[0].since, founded: ents[0].founded, snapDir: snapDir, snapAt: snapAt}
		restored = append(restored, set)
		for i, ent := range ents {
			shared, spec := ent.shared && setShared, svc.Spec()
			if shared {
				spec = ent.spec
			}
			s.regs[ent.id] = &registration{id: ent.id, sql: ent.sql, set: set,
				plan: plans[i], canon: qs[i].String(), shared: shared, spec: spec}
		}
	}
	// Derive the tables and the schema, and install the member lanes the
	// live catalog was serving, before WAL replay maintains them.
	if err := s.reindexLocked(); err != nil {
		return fail(fmt.Errorf("catalog: recover: %w", err))
	}
	return s, m, raw, nil
}

// replayer applies the shared WAL's records in order, coalesced: it decodes
// consecutive records into one row arena and, at each flush, resolves the
// arena's partitions once through the catalog's dictionary and fans it out
// to every set with since <= the index of its first record — exactly the
// fan-out the live catalog performed record by record. A flush happens when
// the arena reaches the sets' group-commit bound (serve.Options.CommitBound),
// before any record whose index is some set's since, so a flush never
// straddles one, and whenever the caller calls flush (the end of the log, or
// of a follower's poll). The result is bit-identical to record-by-record
// replay: records keep their order, so each partition's rows keep theirs,
// and Route assigns ids and runs in first-occurrence order, so every shard
// creates its partitions in the same slot order (lane totals are slot-order
// sums). The set list and the dictionary are captured once, so the
// registration tables must not change while the replayer is in use.
type replayer struct {
	s     *Service
	sets  []*execSet
	parts *serve.Partitions
	sch   *query.Schema
	bound int
	dec   engine.RowDecoder
	rows  engine.Rows
	rt    serve.Routing
	// first is the current-generation index of the arena's first record.
	first uint64
	// inFlight counts the flushes sent since the sets were last drained,
	// at most window (the shard count).
	inFlight, window int
	// records, events and flushes count what the replayer applied.
	records, events, flushes uint64
}

// stats reports the replayer's counts with the phase durations.
func (r *replayer) stats(restore, replay, rotate time.Duration) RecoveryStats {
	return RecoveryStats{Restore: restore, Replay: replay, Rotate: rotate,
		Records: r.records, Events: r.events, Flushes: r.flushes}
}

func (s *Service) replayer() *replayer {
	r := &replayer{s: s, sets: s.setList, parts: s.parts, sch: s.schema.Load(),
		bound: s.opt.serveOptions().CommitBound(), window: max(s.opt.Shards, 1)}
	r.dec.SetSchema(r.sch)
	r.rows.Reset(r.sch.Len())
	return r
}

// record decodes one WAL record into the arena, flushing first when a set's
// replay starts at it and after when the arena has reached the bound. A
// record that fails to decode leaves the arena as it was.
func (r *replayer) record(rec []byte) error {
	s := r.s
	if r.rows.Len() > 0 {
		for _, set := range r.sets {
			if set.since == s.records {
				if err := r.flush(); err != nil {
					return err
				}
				break
			}
		}
	}
	if r.rows.Len() == 0 {
		r.first = s.records
	}
	mark := len(r.rows.Data)
	n, err := r.dec.DecodeRecord(&r.rows, rec)
	if err != nil {
		r.rows.Data = r.rows.Data[:mark]
		return err
	}
	s.records++
	s.applied++
	r.records++
	r.events += uint64(n)
	if r.rows.Len() >= r.bound {
		return r.flush()
	}
	return nil
}

// flush routes the arena and applies it to every set whose replay had
// started by its first record, then empties it.
func (r *replayer) flush() error {
	if r.rows.Len() == 0 {
		return nil
	}
	defer r.rows.Reset(r.sch.Len())
	r.flushes++
	if err := r.parts.Route(r.sch, &r.rows, &r.rt); err != nil {
		return err
	}
	// Replay decodes faster than the shard workers apply, so unchecked it
	// would queue every flush of the log, each in a fresh box per shard and
	// set, and the sets' box free lists would keep them all until the
	// rotation that ends recovery. At most `shards` flushes are left
	// unapplied — together one commit bound's worth of rows on every shard,
	// so a worker's group commit still takes them all at once — and the
	// flushes after a wait reuse their predecessors' boxes.
	if r.inFlight == r.window {
		for _, set := range r.sets {
			if err := set.svc.Drain(); err != nil {
				return err
			}
		}
		r.inFlight = 0
	}
	r.inFlight++
	for _, set := range r.sets {
		if set.since <= r.first {
			if err := set.svc.ApplyRows(r.sch, &r.rows, &r.rt); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeSets closes every executor set (a failed recovery, or a follower
// discarding the state a rebuild replaced).
func (s *Service) closeSets() {
	for _, set := range s.setList {
		set.svc.Close()
	}
}
