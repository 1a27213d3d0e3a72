package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
)

// MultiConfig parameterizes the multi-query catalog experiment: one shared
// ingest stream fanned out to N registered queries, swept over N, in six
// arms. "shared": every registration is a spelling of the same query (one
// executor set under canonical-form reuse). "family": N constant-variant
// queries — same predicate structure, N distinct threshold constants — which
// predicate-generalized sharing collapses onto ONE executor set with N fan
// lanes. "aggvar": N aggregate variants (SUM / COUNT(*) / AVG cycling over
// one predicate), each a distinct probe plan on one state set. "filtered":
// N filtered variants (one extra bare partition-column conjunct per query),
// served as residual probe gates on one state set. "late": the family
// constants again, but only the founder registers before ingest — the rest
// join retroactively at the trace's midpoint, attaching to the live set
// without replaying its history. "distinct": N structurally distinct queries
// (the filter constant inside the threshold subquery varies, so no sharing
// is possible and every event is applied N times). The sharing-vs-distinct
// spread is the payoff of index sharing; the sharing arms against "shared"
// are the marginal cost of the extra probe plans.
type MultiConfig struct {
	Events     int   `json:"events"`       // trace length per cell
	Partitions int   `json:"partitions"`   // distinct partition keys
	Shards     int   `json:"shards"`       // shards per executor set
	BatchSize  int   `json:"batch_size"`   // ApplyBatch size
	Queries    []int `json:"query_counts"` // registered-query counts to sweep
	Iters      int   `json:"iters"`
	Warmup     int   `json:"warmup"`
	Seed       int64 `json:"seed"`
}

// DefaultMulti returns the scales used for BENCH_multi.json.
func DefaultMulti() MultiConfig {
	return MultiConfig{
		Events:     40000,
		Partitions: 512,
		Shards:     2,
		BatchSize:  256,
		Queries:    []int{1, 4, 16, 64},
		Iters:      3,
		Warmup:     1,
		Seed:       1,
	}
}

// QuickMulti shrinks the sweep for the CI smoke run while keeping the
// 16-query point, where sharing versus fan-out visibly diverges. The cells
// stay long enough (~20ms of ingest) to average out scheduler jitter, and
// each reports its minimum over five iterations (see multiPoint) — a short
// cell's single cold mean wobbles past the 15% gate on a busy host.
func QuickMulti() MultiConfig {
	return MultiConfig{
		Events:     20000,
		Partitions: 128,
		Shards:     2,
		BatchSize:  128,
		Queries:    []int{1, 16},
		Iters:      5,
		Warmup:     1,
		Seed:       1,
	}
}

// MultiPoint is one measured cell: a query count in one sharing mode.
// "shared" registers the same query N times (one executor set under
// canonical-form reuse); "family" registers N constant-variant queries (one
// executor set, N fan lanes); "aggvar" and "filtered" register N aggregate
// and residual-filter variants (one state set, N probe plans); "late"
// registers the family's founder up front and the other N-1 mid-trace
// (retroactive joins); "distinct" registers N structurally distinct queries
// (N executor sets, full fan-out).
type MultiPoint struct {
	Queries      int     `json:"queries"`
	Mode         string  `json:"mode"`
	Sets         int     `json:"sets"` // executor sets actually built
	Events       int     `json:"events"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	ElapsedDist  Dist    `json:"elapsed_dist"`
	// RelCost is the cell's elapsed time normalized to the same run's
	// single-query shared cell — the marginal cost of the arm's N queries in
	// units of one query's ingest. Host-speed drift moves every cell of a run
	// together, so this ratio is the drift-immune signal the regression gate
	// leans on; it is also the paper-facing claim (sharing arms stay within
	// ~2x of one query while distinct fan-out scales with N).
	RelCost float64 `json:"rel_cost"`
	// Result is query 0's drained scalar, cross-checked for exact equality
	// across every registration of the same SQL before the point is kept.
	Result float64 `json:"result"`
}

// MultiReport is the full experiment output serialized to BENCH_multi.json.
type MultiReport struct {
	Header
	Config MultiConfig  `json:"config"`
	Points []MultiPoint `json:"points"`
}

// multiSQL builds the i-th registration for a mode. Shared mode re-spells
// the same 0.75-threshold VWAP query (whitespace differences only, so every
// registration canonicalizes identically); family mode varies the threshold
// constant — same predicate structure, so the catalog folds all N onto one
// executor set with N fan lanes; distinct mode varies a filter constant
// inside the threshold subquery, which shapes maintained state and therefore
// forces a separate executor set per query (same executor strategy, so the
// arms' per-set costs are comparable).
func multiSQL(mode string, i int) string {
	agg, residual, threshold, filter := "SUM(b.price * b.volume)", "", "0.750", ""
	switch mode {
	case "family", "late":
		threshold = fmt.Sprintf("0.%03d", 100+i*7) // 0.100, 0.107, ... all distinct
	case "aggvar":
		// SUM / COUNT(*) / AVG cycling over one predicate: distinct probe
		// plans (and, past i=2, exact duplicates of earlier ones) on one set.
		agg = []string{"SUM(b.price * b.volume)", "COUNT(*)", "AVG(b.price * b.volume)"}[i%3]
	case "filtered":
		// One extra bare partition-column conjunct per query past the base:
		// each splits into the shared state plus a residual probe gate.
		if i > 0 {
			residual = fmt.Sprintf("b.sym > %d AND ", i)
		}
	case "distinct":
		filter = fmt.Sprintf(" WHERE b1.volume > 0.%03d", 100+i*7)
	}
	pad := strings.Repeat(" ", i%4+1) // spelling variation, canonically identical
	return fmt.Sprintf(`SELECT %s FROM bids b
WHERE %s%s *%s(SELECT SUM(b1.volume) FROM bids b1%s)
  < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`, agg, residual, threshold, pad, filter)
}

// Multi runs the registered-query sweep in both sharing modes.
func Multi(cfg MultiConfig) (*MultiReport, error) {
	if len(cfg.Queries) == 0 {
		cfg.Queries = []int{1}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	rep := &MultiReport{Header: NewHeader("multi", cfg.Iters), Config: cfg}
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)
	for _, n := range cfg.Queries {
		for _, mode := range []string{"shared", "family", "aggvar", "filtered", "late", "distinct"} {
			p, err := multiPoint(cfg, events, n, mode)
			if err != nil {
				return nil, fmt.Errorf("bench: multi %s at %d queries: %w", mode, n, err)
			}
			rep.Points = append(rep.Points, p)
		}
	}
	// Normalize every cell against the run's single-query shared cell (the
	// sweep always starts there). With no such cell RelCost stays 0, which
	// the compare harness treats as unclassifiable rather than a regression.
	var ref float64
	for _, p := range rep.Points {
		if p.Mode == "shared" && p.Queries == 1 {
			ref = p.ElapsedMS
			break
		}
	}
	if ref > 0 {
		for i := range rep.Points {
			rep.Points[i].RelCost = rep.Points[i].ElapsedMS / ref
		}
	}
	return rep, nil
}

// multiPoint measures one (query count, mode) cell: fresh catalog, register,
// ingest the whole trace in batches, drain.
func multiPoint(cfg MultiConfig, events []engine.Event, n int, mode string) (MultiPoint, error) {
	p := MultiPoint{Queries: n, Mode: mode, Events: len(events)}
	point := func() (float64, error) {
		cat, err := catalog.New(catalog.Options{
			PartitionBy: []string{"sym"},
			Shards:      cfg.Shards,
			BatchSize:   cfg.BatchSize,
		})
		if err != nil {
			return 0, err
		}
		defer cat.Close()
		// The late arm registers only the family founder up front; everyone
		// else joins retroactively at the trace midpoint, so the measured
		// time includes the attach cost — which the refactor makes
		// history-independent (no replay of the first half).
		upfront := n
		if mode == "late" {
			upfront = 1
		}
		ids := make([]catalog.QueryID, 0, n)
		for i := 0; i < upfront; i++ {
			id, _, err := cat.Register(multiSQL(mode, i))
			if err != nil {
				return 0, err
			}
			ids = append(ids, id)
		}
		countSets := func() int {
			sets := map[uint64]bool{}
			for _, st := range cat.Stats() {
				sets[st.SetID] = true
			}
			return len(sets)
		}
		wantSets := 1 // every sharing arm collapses onto one state set
		if mode == "distinct" {
			wantSets = n
		}
		if mode != "late" && countSets() != wantSets {
			return 0, fmt.Errorf("%d executor sets built, want %d", countSets(), wantSets)
		}

		lateAt := len(events) / 2
		start := time.Now()
		for i := 0; i < len(events); i += cfg.BatchSize {
			if mode == "late" && i >= lateAt && len(ids) < n {
				for j := 1; j < n; j++ {
					id, _, err := cat.Register(multiSQL(mode, j))
					if err != nil {
						return 0, err
					}
					ids = append(ids, id)
				}
			}
			end := min(i+cfg.BatchSize, len(events))
			if err := cat.ApplyBatch(events[i:end]); err != nil {
				return 0, err
			}
		}
		if err := cat.DrainAll(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		// Checked after ingest so the late arm's retroactive joins count:
		// they must have attached to the founder's set, not founded their own.
		if got := countSets(); got != wantSets {
			return 0, fmt.Errorf("%d executor sets after ingest, want %d", got, wantSets)
		}
		p.Sets = countSets()

		// Every registration of the same SQL must read back the same result;
		// every family lane must read back at all (the bit-identity of lane
		// values is the fuzzers' job, readability is the bench's).
		p.Result, err = cat.Result(ids[0])
		if err != nil {
			return 0, err
		}
		switch mode {
		case "shared":
			for _, id := range ids[1:] {
				r, err := cat.Result(id)
				if err != nil {
					return 0, err
				}
				if r != p.Result {
					return 0, fmt.Errorf("shared registrations disagree: %v vs %v", r, p.Result)
				}
			}
		case "family", "aggvar", "filtered", "late", "distinct":
			for _, id := range ids[1:] {
				if _, err := cat.Result(id); err != nil {
					return 0, err
				}
			}
		}
		return float64(elapsed.Microseconds()) / 1e3, nil
	}
	dist, err := measure(cfg.Warmup, cfg.Iters, point)
	if err != nil {
		return p, err
	}
	p.ElapsedDist = dist
	// The cell statistic is the minimum over iterations, not the mean:
	// scheduler and co-tenant interference only ever add time, so the min is
	// the noise-robust estimate of the cell's true cost and keeps the 15%
	// regression gate from tripping on load spikes. The full spread stays
	// visible in ElapsedDist.
	p.ElapsedMS = dist.Min
	if dist.Min > 0 {
		p.EventsPerSec = float64(len(events)) / (dist.Min / 1e3)
	}
	return p, nil
}

// MultiJSON serializes the report for BENCH_multi.json.
func MultiJSON(rep *MultiReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatMulti renders the report as an aligned text table.
func FormatMulti(rep *MultiReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "multi-query catalog ingest (%d events, %d partitions, %d shards, batch %d)\n",
		rep.Config.Events, rep.Config.Partitions, rep.Config.Shards, rep.Config.BatchSize)
	fmt.Fprintf(&b, "  %-8s %-9s %6s %14s %12s %8s %8s\n",
		"queries", "mode", "sets", "events/sec", "elapsed(ms)", "rel", "rsd")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "  %-8d %-9s %6d %14.0f %12.1f %7.2fx %7.1f%%\n",
			p.Queries, p.Mode, p.Sets, p.EventsPerSec, p.ElapsedMS, p.RelCost, p.ElapsedDist.RSD)
	}
	return b.String()
}
