package catalog

import "fmt"

// Explain is one registered query's EXPLAIN output: the optimizer's chosen
// strategy and index plan (from engine.Describe) plus the catalog-level
// sharing report — the state set the query's reads run against, the probe
// plan it reads through, which other registrations execute on the same
// aggregate indexes, and the predicate-structure signature that sharing is
// visible through.
type Explain struct {
	ID        QueryID
	SQL       string // as registered
	Canonical string // canonical rendering (the sharing identity)

	Strategy   string   // "naive" | "general" | "relstate" | "aggindex"
	IndexKind  string   // "pai" | "rpai-arena" | "level-tree" | "" for no index
	KeyCol     string   // column keying the aggregate index
	SubOp      string   // correlation operator of the indexed predicate
	Agg        string   // outer aggregate expression
	GroupBy    []string // grouping columns
	Predicates []string // canonical conjuncts
	PredSig    string   // structure signature (constants masked)

	// StateKey identifies the maintained state the query's reads run against
	// (engine.StateKey of its shareable base); empty when the query is not
	// probe-eligible and owns its executor set's results outright.
	StateKey string
	// Probe is the query's probe plan against that state — aggregate kind,
	// threshold constant, and any residual conjunct (engine.ProbeSpec) — in
	// its canonical rendering, e.g. "count@0.75" or "sum@0.9 | sym > 2".
	// Empty when StateKey is.
	Probe string
	// Residual is the probe-time residual conjunct ("sym > 2"), split off the
	// registered query and evaluated as a per-partition gate; empty when the
	// whole predicate is maintained in the state set.
	Residual string

	// SharedWith lists the other QueryIDs whose executors run on the same
	// underlying aggregate indexes (same executor set). Empty when the query
	// has its indexes to itself.
	SharedWith []QueryID
	// SharedExact and SharedFamily split SharedWith by how the sharing was
	// established: identical canonical text, versus a structural variant
	// (different threshold constant, outer aggregate, or residual conjunct
	// over the same maintained state) — variants are served from their own
	// probe lane on the shared indexes.
	SharedExact  []QueryID
	SharedFamily []QueryID
	// Since is the catalog WAL record index (current generation) the query's
	// executor set's persisted state is current through; recovery replays the
	// records from Since onward into it.
	Since uint64
	// StateSince is the catalog's lifetime batch count when the query's state
	// set was founded: the set's state reflects every batch applied from
	// StateSince onward. A retroactive joiner inherits the set's history, so
	// its StateSince can predate its own registration.
	StateSince uint64
	// IngestSets counts the distinct executor sets a batch currently fans
	// out to — the catalog's per-batch ingest-cost estimate. N registrations
	// collapsed into one set cost one application, not N.
	IngestSets int
}

// Get returns one query's EXPLAIN.
func (s *Service) Get(id QueryID) (Explain, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Explain{}, ErrClosed
	}
	reg, ok := s.regs[id]
	if !ok {
		return Explain{}, fmt.Errorf("%w: %d", ErrUnknownQuery, id)
	}
	return s.explainLocked(reg), nil
}

// explainLocked assembles a registration's Explain. Callers hold mu (read or
// write).
func (s *Service) explainLocked(reg *registration) Explain {
	ex := Explain{
		ID:         reg.id,
		SQL:        reg.sql,
		Canonical:  reg.canon,
		Strategy:   reg.plan.Strategy,
		IndexKind:  reg.plan.IndexKind,
		KeyCol:     reg.plan.KeyCol,
		SubOp:      reg.plan.SubOp,
		Agg:        reg.plan.Agg,
		GroupBy:    reg.plan.GroupBy,
		Predicates: reg.plan.Predicates,
		PredSig:    reg.plan.PredSig,
	}
	if reg.shared {
		ex.StateKey = reg.set.stateKey
		ex.Probe = reg.spec.String()
		if reg.spec.Residual {
			ex.Residual = fmt.Sprintf("%s %s %v", reg.spec.ResidualCol, reg.spec.ResidualOp, reg.spec.ResidualVal)
		}
	}
	for _, id := range reg.set.refs { // in QueryID order
		if id == reg.id {
			continue
		}
		ex.SharedWith = append(ex.SharedWith, id)
		if other, ok := s.regs[id]; ok && other.canon != reg.canon {
			ex.SharedFamily = append(ex.SharedFamily, id)
		} else {
			ex.SharedExact = append(ex.SharedExact, id)
		}
	}
	ex.Since = reg.set.since
	ex.StateSince = reg.set.founded
	ex.IngestSets = len(s.setList)
	return ex
}
