package bench

import (
	"math"

	"rpai/internal/tpch"
)

// Fig8Config parameterizes the scalability sweeps of Figures 8a-8c: running
// time over stream trace size for MST, SQ1 and NQ2 under all three systems,
// and the engine on SQ1 and NQ2.
type Fig8Config struct {
	// Sizes are the trace lengths (the paper sweeps 100 -> 100k).
	Sizes []int
	// NaiveCap skips the naive system above this trace size (re-evaluation
	// is O(n^2)-O(n^3) per event; the paper's recomputation curves stop in
	// the same regime). Zero means never run naive.
	NaiveCap int
	// NQ2NaiveCap is the tighter cap for NQ2's O(n^3)-per-event naive.
	NQ2NaiveCap int
	// ToasterCap skips the toaster system above this size (relevant only
	// for the 100k full sweep, where NQ2's cubic loops dominate).
	ToasterCap int
	Seed       int64
}

// DefaultFig8 covers 100 -> 10k quickly; FullFig8 adds the 100k point.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Sizes:       []int{100, 1000, 10000},
		NaiveCap:    1000,
		NQ2NaiveCap: 200,
		ToasterCap:  10000,
		Seed:        1,
	}
}

// FullFig8 is the paper-scale sweep including 100k traces.
func FullFig8() Fig8Config {
	cfg := DefaultFig8()
	cfg.Sizes = append(cfg.Sizes, 100000)
	cfg.NaiveCap = 2000
	cfg.ToasterCap = 100000
	return cfg
}

// Fig8Point is one (size, system) measurement; Skipped marks points beyond a
// system's cap.
type Fig8Point struct {
	Size    int
	Skipped bool
	Outcome
}

// Fig8Series is the measured curve set for one query.
type Fig8Series struct {
	Query  string
	Points []Fig8Point
}

// Fig8Queries are the three queries of Figures 8a-8c.
func Fig8Queries() []string { return []string{"mst", "sq1", "nq2"} }

// Fig8 runs the trace-size sweeps for MST (8a), SQ1 (8b) and NQ2 (8c).
func Fig8(cfg Fig8Config) []Fig8Series {
	out := make([]Fig8Series, 0, 3)
	for _, q := range Fig8Queries() {
		bothSides := q == "mst"
		systems := withEngine(q, SysNaive, SysToaster, SysRPAI)
		s := Fig8Series{Query: q}
		for _, size := range cfg.Sizes {
			events := FinanceTrace(size, bothSides, cfg.Seed)
			for _, sys := range systems {
				limit := math.MaxInt
				switch sys {
				case SysNaive:
					limit = cfg.NaiveCap
					if q == "nq2" {
						limit = cfg.NQ2NaiveCap
					}
				case SysToaster:
					limit = cfg.ToasterCap
				}
				if size > limit {
					s.Points = append(s.Points, Fig8Point{Size: size, Skipped: true, Outcome: Outcome{System: sys}})
					continue
				}
				o := best(func() Outcome { return NewFinanceRunner(q, sys, events).Run() })
				s.Points = append(s.Points, Fig8Point{Size: size, Outcome: o})
			}
		}
		out = append(out, s)
	}
	return out
}

// Fig8dConfig parameterizes Figure 8d: Q17 running time over TPC-H scale
// factors, on uniform and skewed data, for the Toaster and RPAI systems.
type Fig8dConfig struct {
	// Scales are the TPC-H scale factors (the paper uses 0.1-5).
	Scales []float64
	Seed   int64
}

// DefaultFig8d is the paper's scale-factor grid.
func DefaultFig8d() Fig8dConfig {
	return Fig8dConfig{Scales: []float64{0.1, 0.5, 1, 2, 5}, Seed: 1}
}

// Fig8dPoint is one Q17 measurement.
type Fig8dPoint struct {
	Scale  float64
	Skewed bool
	Outcome
}

// Fig8d runs the Q17 scale sweep: four curves (two systems x two datasets).
func Fig8d(cfg Fig8dConfig) []Fig8dPoint {
	var out []Fig8dPoint
	for _, sf := range cfg.Scales {
		for _, skewed := range []bool{false, true} {
			tcfg := tpch.DefaultConfig(sf, skewed)
			tcfg.Seed = cfg.Seed
			d := tpch.Generate(tcfg)
			for _, sys := range []System{SysToaster, SysRPAI} {
				o := best(func() Outcome { return NewQ17Runner(sys, d).Run() })
				out = append(out, Fig8dPoint{Scale: sf, Skewed: skewed, Outcome: o})
			}
		}
	}
	return out
}
