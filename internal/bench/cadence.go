package bench

// CadenceConfig parameterizes the refresh-cadence experiment: the paper's
// introduction motivates incremental processing both for per-event refresh
// and for mini-batched evaluation; this experiment measures how the refresh
// cadence shifts the balance between the systems. DBToaster-style executors
// pay most of their cost in the result recomputation, so large batches
// amortize it; the RPAI executors pay O(log n) in Apply and O(log n) in
// Result, so their total barely depends on the cadence. The engine runs
// beside them when the query has a SQL form.
type CadenceConfig struct {
	// Query is the finance query to replay.
	Query string
	// Events is the trace length.
	Events int
	// BatchSizes are the refresh cadences to measure (1 = per event).
	BatchSizes []int
	Seed       int64
}

// DefaultCadence measures VWAP at cadences 1-1000 over a 10k-event trace.
func DefaultCadence() CadenceConfig {
	return CadenceConfig{Query: "vwap", Events: 10000, BatchSizes: []int{1, 10, 100, 1000}, Seed: 1}
}

// CadencePoint is one (system, batch size) measurement; its digest covers
// the results read at the batch boundaries.
type CadencePoint struct {
	Batch int
	Outcome
}

// Cadence replays the query under Toaster and RPAI, reading the result once
// per batch instead of once per event.
func Cadence(cfg CadenceConfig) []CadencePoint {
	bothSides := cfg.Query == "mst" || cfg.Query == "psp"
	events := FinanceTrace(cfg.Events, bothSides, cfg.Seed)
	var out []CadencePoint
	for _, sys := range withEngine(cfg.Query, SysToaster, SysRPAI) {
		for _, bs := range cfg.BatchSizes {
			o := best(func() Outcome { return NewFinanceRunner(cfg.Query, sys, events).runEvery(bs) })
			out = append(out, CadencePoint{Batch: bs, Outcome: o})
		}
	}
	return out
}
