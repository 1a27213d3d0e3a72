package bench

import (
	"runtime"
	"time"
)

// Fig9Config parameterizes the runtime-characteristics experiment of
// Figure 9: memory footprint, record-processing rate and cumulative time
// sampled as the stream is processed, for MST, VWAP and NQ2 under all three
// systems, and the engine on VWAP and NQ2.
type Fig9Config struct {
	// Events is the trace length per query (the paper uses ~8-10k).
	Events int
	// SampleEvery is the sampling window in events.
	SampleEvery int
	// NaiveCap truncates the naive system's replay (its quadratic-and-worse
	// per-event cost makes full traces infeasible); samples beyond the cap
	// are omitted.
	NaiveCap int
	// NQ2NaiveCap is the tighter cap for NQ2.
	NQ2NaiveCap int
	Seed        int64
}

// DefaultFig9 samples 4k-event traces every 200 events.
func DefaultFig9() Fig9Config {
	return Fig9Config{Events: 4000, SampleEvery: 200, NaiveCap: 1200, NQ2NaiveCap: 200, Seed: 1}
}

// Fig9Sample is one sampled point of one system's curve.
type Fig9Sample struct {
	// Processed is the number of events processed so far.
	Processed int
	// HeapMB is the live heap after the window, in MiB.
	HeapMB float64
	// Rate is the windowed processing rate in events/second.
	Rate float64
	// CumSeconds is the cumulative processing time in seconds.
	CumSeconds float64
}

// Fig9Curve is one system's sampled behaviour on one query; its Outcome
// covers the events it processed.
type Fig9Curve struct {
	Query   string
	Samples []Fig9Sample
	Outcome
}

// Fig9Queries are the three queries of Figures 9a-9c.
func Fig9Queries() []string { return []string{"mst", "vwap", "nq2"} }

// Fig9 replays each query under each system, sampling memory, rate and
// cumulative time every SampleEvery events.
func Fig9(cfg Fig9Config) []Fig9Curve {
	var out []Fig9Curve
	for _, q := range Fig9Queries() {
		bothSides := q == "mst"
		events := FinanceTrace(cfg.Events, bothSides, cfg.Seed)
		for _, sys := range withEngine(q, SysNaive, SysToaster, SysRPAI) {
			limit := cfg.Events
			if sys == SysNaive {
				limit = cfg.NaiveCap
				if q == "nq2" {
					limit = cfg.NQ2NaiveCap
				}
			}
			r := NewFinanceRunner(q, sys, events)
			curve := Fig9Curve{Query: q, Outcome: Outcome{System: sys, Digest: digestSeed}}
			var cum time.Duration
			i := 0
			for i < r.N && i < limit {
				windowEnd := min(i+cfg.SampleEvery, r.N, limit)
				start := time.Now()
				for ; i < windowEnd; i++ {
					r.Apply(i)
					curve.Final = r.Result()
					curve.Digest = fold(curve.Digest, curve.Final)
				}
				w := time.Since(start)
				cum += w
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				rate := 0.0
				if w > 0 {
					rate = float64(cfg.SampleEvery) / w.Seconds()
				}
				curve.Samples = append(curve.Samples, Fig9Sample{
					Processed:  i,
					HeapMB:     float64(ms.HeapAlloc) / (1 << 20),
					Rate:       rate,
					CumSeconds: cum.Seconds(),
				})
			}
			curve.Events, curve.Elapsed = i, cum
			out = append(out, curve)
		}
	}
	return out
}
