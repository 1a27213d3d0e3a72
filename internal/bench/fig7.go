package bench

import (
	"time"

	"rpai/internal/tpch"
)

// Fig7Config parameterizes the Figure 7 reproduction: relative execution
// time of RPAI vs DBToaster on every benchmark query, with the engine beside
// them on every query that has a SQL form.
type Fig7Config struct {
	// FinanceEvents is the finance trace length (the paper uses 10k).
	FinanceEvents int
	// TPCHScale is the TPC-H scale factor (the paper uses SF 1).
	TPCHScale float64
	Seed      int64
}

// DefaultFig7 is the paper-scale configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{FinanceEvents: 10000, TPCHScale: 1, Seed: 1}
}

// naivePrefix is the length of the finance trace's prefix on which naive
// re-evaluation, O(n)-O(n^3) per event, checks the engine bit for bit.
const naivePrefix = 100

// Fig7Row is one bar of Figure 7 plus the table beneath it.
type Fig7Row struct {
	Query   string
	Toaster time.Duration
	RPAI    time.Duration
	// Engine is zero for a query without a SQL form.
	Engine time.Duration
	// Speedup is Toaster/RPAI, the figure's y-axis.
	Speedup float64
	// Outcomes are every replay behind the row: toaster, rpai and engine
	// over the whole trace, and naive and engine again over its first
	// naivePrefix events.
	Outcomes []Outcome
}

// Fig7 measures every query of the evaluation and returns rows in the
// paper's order: Q17, Q17* (skewed), Q18, MST, PSP, VWAP, SQ1, SQ2, NQ1, NQ2.
func Fig7(cfg Fig7Config) []Fig7Row {
	rows := make([]Fig7Row, 0, 10)

	tpchRow := func(name string, skewed bool, q18 bool) Fig7Row {
		tcfg := tpch.DefaultConfig(cfg.TPCHScale, skewed)
		tcfg.Seed = cfg.Seed
		d := tpch.Generate(tcfg)
		mk := func(sys System) *Runner {
			if q18 {
				return NewQ18Runner(sys, d.Events)
			}
			return NewQ17Runner(sys, d)
		}
		return measureRow(name, mk)
	}
	rows = append(rows,
		tpchRow("q17", false, false),
		tpchRow("q17*", true, false),
		tpchRow("q18", false, true),
	)

	finance := map[bool][]string{true: {"mst", "psp"}, false: {"vwap", "sq1", "sq2", "nq1", "nq2"}}
	for _, both := range []bool{true, false} {
		events := FinanceTrace(cfg.FinanceEvents, both, cfg.Seed)
		prefix := events[:min(naivePrefix, len(events))]
		for _, q := range finance[both] {
			row := measureRow(q, func(sys System) *Runner { return NewFinanceRunner(q, sys, events) })
			if HasSQL(q) {
				e := best(func() Outcome { return NewFinanceRunner(q, SysEngine, events).Run() })
				row.Engine = e.Elapsed
				row.Outcomes = append(row.Outcomes, e,
					NewFinanceRunner(q, SysNaive, prefix).Run(),
					NewFinanceRunner(q, SysEngine, prefix).Run())
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func measureRow(name string, mk func(System) *Runner) Fig7Row {
	t := best(func() Outcome { return mk(SysToaster).Run() })
	r := best(func() Outcome { return mk(SysRPAI).Run() })
	row := Fig7Row{Query: name, Toaster: t.Elapsed, RPAI: r.Elapsed, Outcomes: []Outcome{t, r}}
	if r.Elapsed > 0 {
		row.Speedup = float64(t.Elapsed) / float64(r.Elapsed)
	}
	return row
}
