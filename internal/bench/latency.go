package bench

import (
	"sort"
	"time"
)

// LatencyConfig parameterizes the per-event latency experiment: algorithmic
// trading (the paper's motivating domain) cares about refresh tail latency
// at least as much as throughput, so this measures the distribution of
// per-event maintenance times rather than the trace total.
type LatencyConfig struct {
	Query  string
	Events int
	Seed   int64
	// WarmUp events are excluded from the distribution.
	WarmUp int
}

// DefaultLatency measures VWAP over a 10k-event trace.
func DefaultLatency() LatencyConfig {
	return LatencyConfig{Query: "vwap", Events: 10000, Seed: 1, WarmUp: 500}
}

// LatencyRow is one system's per-event latency distribution.
type LatencyRow struct {
	Outcome
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration
	Max time.Duration
}

// Latency replays the query under Toaster and RPAI, and the engine when the
// query has a SQL form, timing every event (apply + result refresh)
// individually.
func Latency(cfg LatencyConfig) []LatencyRow {
	bothSides := cfg.Query == "mst" || cfg.Query == "psp"
	events := FinanceTrace(cfg.Events, bothSides, cfg.Seed)
	var out []LatencyRow
	for _, sys := range withEngine(cfg.Query, SysToaster, SysRPAI) {
		r := NewFinanceRunner(cfg.Query, sys, events)
		o := Outcome{System: sys, Events: r.N, Digest: digestSeed}
		samples := make([]time.Duration, 0, r.N)
		for i := 0; i < r.N; i++ {
			start := time.Now()
			r.Apply(i)
			o.Final = r.Result()
			d := time.Since(start)
			o.Elapsed += d
			o.Digest = fold(o.Digest, o.Final)
			if i >= cfg.WarmUp {
				samples = append(samples, d)
			}
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out = append(out, LatencyRow{
			Outcome: o,
			P50:     percentile(samples, 0.50),
			P95:     percentile(samples, 0.95),
			P99:     percentile(samples, 0.99),
			Max:     samples[len(samples)-1],
		})
	}
	return out
}

// percentile returns the p-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
