package bench

import (
	"math/rand"
	"time"

	"rpai/internal/aggindex"
	"rpai/internal/queries"
	"rpai/internal/rpai"
)

// AblationConfig parameterizes the section 3 ablations: the aggregate-index
// operations on the RPAI tree and the PAI map, the balanced tree's negative
// shift against the paper's literal unbalanced algorithm, VWAP on both, and
// EQ1 (Example 2.1) under every system and both index kinds.
type AblationConfig struct {
	// Keys is the size of the index the operations are timed on.
	Keys int
	// Ops is the number of timed operations per (operation, structure).
	Ops int
	// Events is the trace length of the VWAP and EQ1 replays.
	Events int
	Seed   int64
}

// DefaultAblation times 2 000 operations on 10k-key indexes and replays
// 2 000-event traces.
func DefaultAblation() AblationConfig {
	return AblationConfig{Keys: 10000, Ops: 2000, Events: 2000, Seed: 1}
}

// AblationRow is one variant of one ablation group. The operation groups
// (getsum, shift, add, shiftneg) fill only PerOp; the replay groups (vwap,
// eq1) also carry the replay's Outcome.
type AblationRow struct {
	Group   string
	Variant string
	PerOp   time.Duration
	Outcome
}

// Ablation runs every group in order: getsum, shift, add, shiftneg, vwap,
// eq1.
func Ablation(cfg AblationConfig) []AblationRow {
	rng := rand.New(rand.NewSource(cfg.Seed))
	randKeys := func(n, domain int) []float64 {
		ks := make([]float64, n)
		for i := range ks {
			ks[i] = float64(rng.Intn(domain))
		}
		return ks
	}
	keys, probes := randKeys(cfg.Keys, 10*cfg.Keys), randKeys(cfg.Ops, 10*cfg.Keys)
	type index interface {
		Add(k, dv float64)
		ShiftKeys(k, d float64)
	}
	build := func(idx index, keys []float64) {
		for _, k := range keys {
			idx.Add(k, 1)
		}
	}
	timeOps := func(op func(i int)) time.Duration {
		start := time.Now()
		for i := 0; i < cfg.Ops; i++ {
			op(i)
		}
		return time.Since(start) / time.Duration(cfg.Ops)
	}

	// One index per kind, built once: getsum leaves it as built, the
	// alternating shifts keep its keys in a band, and add comes last.
	ops := []struct {
		group string
		op    func(idx aggindex.Index, i int)
	}{
		{"getsum", func(idx aggindex.Index, i int) { idx.GetSum(probes[i]) }},
		{"shift", func(idx aggindex.Index, i int) { idx.ShiftKeys(probes[i], float64(1-2*(i&1))) }},
		{"add", func(idx aggindex.Index, i int) { idx.Add(probes[i]+0.5, 1) }},
	}
	kinds := aggindex.Kinds()
	out := make([]AblationRow, len(ops)*len(kinds))
	for k, kind := range kinds {
		idx := aggindex.New(kind)
		build(idx, keys)
		for g, o := range ops {
			out[g*len(kinds)+k] = AblationRow{Group: o.group, Variant: string(kind),
				PerOp: timeOps(func(i int) { o.op(idx, i) })}
		}
	}

	// The aggregate-maintenance access pattern of section 3.2.4: a negative
	// shift at a random key, where at most one key collides, undone by the
	// positive shift after it.
	sparse, at := randKeys(cfg.Keys, 100*cfg.Keys), randKeys(cfg.Ops, 100*cfg.Keys)
	for _, v := range []struct {
		name string
		idx  index
	}{{"balanced", rpai.New()}, {"reference", rpai.NewReference()}} {
		build(v.idx, sparse)
		out = append(out, AblationRow{Group: "shiftneg", Variant: v.name, PerOp: timeOps(func(i int) {
			v.idx.ShiftKeys(at[i], -1)
			v.idx.ShiftKeys(at[i], 1)
		})})
	}

	replay := func(group, variant string, mk func() *Runner) {
		o := best(func() Outcome { return mk().Run() })
		out = append(out, AblationRow{Group: group, Variant: variant,
			PerOp: o.Elapsed / time.Duration(max(o.Events, 1)), Outcome: o})
	}
	bids := FinanceTrace(cfg.Events, false, cfg.Seed)
	for _, kind := range aggindex.Kinds() {
		replay("vwap", string(kind), func() *Runner {
			ex := queries.NewVWAPWithIndex(kind)
			return &Runner{Query: "vwap", System: SysRPAI, N: len(bids),
				Apply: func(i int) { ex.Apply(bids[i]) }, Result: ex.Result}
		})
	}
	rab := EQ1Trace(cfg.Events, cfg.Seed)
	for _, sys := range []System{SysNaive, SysToaster, SysRPAI, SysEngine} {
		replay("eq1", string(sys), func() *Runner { return NewEQ1Runner(sys, rab) })
	}
	replay("eq1", "rpai/"+string(aggindex.KindArena), func() *Runner {
		return newEQ1Runner(SysRPAI, queries.NewEQ1WithIndex(aggindex.KindArena), rab)
	})
	return out
}
