package bench

import "time"

// Table1Row mirrors one row of the paper's Table 1: the optimizations each
// query admits and the per-update complexity of DBToaster vs RPAI.
type Table1Row struct {
	Queries    string
	GeneralAlg bool
	AggIndex   bool
	Toaster    string
	RPAI       string
}

// Table1 returns the paper's complexity table (static; the measured
// validation lives in MeasureScaling).
func Table1() []Table1Row {
	return []Table1Row{
		{"MST, VWAP, NQ1", true, true, "O(n^2)", "O(log n)"},
		{"PSP", true, true, "O(n)", "O(log n)"},
		{"SQ1, SQ2", true, false, "O(n^2)", "O(n)"},
		{"NQ2", true, false, "O(n^3)", "O(n log n)"},
		{"TPC-H Q17", true, true, "O(n)", "O(log n)"},
		{"TPC-H Q18", true, false, "O(1)", "O(1)"},
	}
}

// ScalingRow is a measured validation of Table 1: per-event time at two
// trace sizes and the growth factor between them. Linear-per-event systems
// grow ~x10 when the trace grows x10; logarithmic ones stay nearly flat.
type ScalingRow struct {
	Query        string
	System       System
	SmallN       int
	LargeN       int
	SmallPerOp   time.Duration
	LargePerOp   time.Duration
	GrowthFactor float64
	// Digests are the small and large replays' result digests (Outcome).
	Digests [2]uint64
}

// ScalingConfig parameterizes MeasureScaling.
type ScalingConfig struct {
	SmallN int
	LargeN int
	Seed   int64
}

// DefaultScaling compares per-event costs at 1k vs 8k events.
func DefaultScaling() ScalingConfig { return ScalingConfig{SmallN: 1000, LargeN: 8000, Seed: 1} }

// MeasureScaling measures per-event cost growth for every finance query
// under Toaster and RPAI, the empirical counterpart of Table 1.
func MeasureScaling(cfg ScalingConfig) []ScalingRow {
	var out []ScalingRow
	for _, q := range []struct {
		name string
		both bool
	}{
		{"mst", true}, {"psp", true}, {"vwap", false},
		{"sq1", false}, {"sq2", false}, {"nq1", false}, {"nq2", false},
	} {
		small := FinanceTrace(cfg.SmallN, q.both, cfg.Seed)
		large := FinanceTrace(cfg.LargeN, q.both, cfg.Seed)
		for _, sys := range []System{SysToaster, SysRPAI} {
			so := best(func() Outcome { return NewFinanceRunner(q.name, sys, small).Run() })
			lo := best(func() Outcome { return NewFinanceRunner(q.name, sys, large).Run() })
			row := ScalingRow{
				Query:      q.name,
				System:     sys,
				SmallN:     cfg.SmallN,
				LargeN:     cfg.LargeN,
				SmallPerOp: so.Elapsed / time.Duration(cfg.SmallN),
				LargePerOp: lo.Elapsed / time.Duration(cfg.LargeN),
				Digests:    [2]uint64{so.Digest, lo.Digest},
			}
			if row.SmallPerOp > 0 {
				row.GrowthFactor = float64(row.LargePerOp) / float64(row.SmallPerOp)
			}
			out = append(out, row)
		}
	}
	return out
}
