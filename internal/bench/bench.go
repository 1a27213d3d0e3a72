// Package bench is the experiment harness that regenerates the paper's
// evaluation (section 5): Figure 7 (relative execution time per query),
// Figures 8a-8d (scalability sweeps), Figure 9 (memory / rate / time
// curves), Table 1 (complexity classes, validated by measured growth
// factors) and the section 3 index ablations. Every query with a SQL form
// also runs through the engine the server runs (SysEngine). The rpaibench
// command prints the paper-style rows and evaluates each experiment's shape
// checks (checks.go), failing when a claim of EXPERIMENTS.md does not hold.
//
// Absolute numbers are not expected to match the paper (different machine,
// language, and synthetic rather than proprietary traces — see DESIGN.md);
// the shapes are: who wins, by roughly what factor, and where crossovers
// fall.
package bench

import (
	"math"
	"time"

	"rpai/internal/queries"
	"rpai/internal/query"
	"rpai/internal/stream"
	"rpai/internal/tpch"
)

// System names an execution strategy in benchmark output.
type System string

// The systems under comparison: the paper's three, each a hand-written
// executor of internal/queries, and the engine the server runs.
const (
	SysNaive   System = "naive"
	SysToaster System = "toaster"
	SysRPAI    System = "rpai"
	SysEngine  System = "engine"
)

func (s System) strategy() queries.Strategy {
	switch s {
	case SysNaive:
		return queries.Naive
	case SysToaster:
		return queries.Toaster
	case SysRPAI:
		return queries.RPAI
	}
	panic("bench: unknown system " + string(s))
}

// Runner is a prepared workload: an executor bound to a trace.
type Runner struct {
	Query  string
	System System
	N      int
	// Apply processes event i; Result reads the maintained output.
	Apply  func(i int)
	Result func() float64
}

// Outcome is one replay of a trace: its wall-clock time and a digest of
// every result it read, so runs of different systems over the same trace
// and read schedule can be compared bit for bit.
type Outcome struct {
	System  System
	Events  int
	Elapsed time.Duration
	// Final is the result after the last event.
	Final float64
	// Digest folds the Float64bits of every result read, in order.
	Digest uint64
}

// FNV-1a over 64-bit words.
const (
	digestSeed  uint64 = 14695981039346656037
	digestPrime uint64 = 1099511628211
)

func fold(h uint64, v float64) uint64 { return (h ^ math.Float64bits(v)) * digestPrime }

// Run replays the whole trace, reading the result after every event (the
// paper's "refresh the output on every update" execution model), and
// reports the elapsed wall-clock time and the results read.
func (r *Runner) Run() Outcome { return r.runEvery(1) }

// runEvery replays the trace reading the result once every `every` events
// and once more after the last.
func (r *Runner) runEvery(every int) Outcome {
	h := digestSeed
	start := time.Now()
	for i := 0; i < r.N; i++ {
		r.Apply(i)
		if (i+1)%every == 0 {
			h = fold(h, r.Result())
		}
	}
	res := r.Result()
	return Outcome{System: r.System, Events: r.N, Elapsed: time.Since(start), Final: res, Digest: fold(h, res)}
}

// shortRun is the replay time below which one measurement sits within a GC
// cycle or a scheduler quantum of noise.
const shortRun = 10 * time.Millisecond

// best returns replay's outcome; a replay shorter than shortRun is repeated
// up to twice more and the fastest kept. replay must start from fresh state
// each call.
func best(replay func() Outcome) Outcome {
	o := replay()
	for i := 0; i < 2 && o.Elapsed < shortRun; i++ {
		if r := replay(); r.Elapsed < o.Elapsed {
			o = r
		}
	}
	return o
}

// NewFinanceRunner binds a finance query executor to an order-book trace;
// SysEngine runs the query's SQL form (HasSQL).
func NewFinanceRunner(name string, sys System, events []stream.Event) *Runner {
	if sys == SysEngine {
		return newEngineRunner(name, len(events), func(i int) (float64, query.Tuple) {
			e := events[i]
			if e.Side != stream.Bids {
				return 0, nil
			}
			return e.X(), query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume}
		})
	}
	ex := queries.NewBids(name, sys.strategy())
	return &Runner{Query: name, System: sys, N: len(events),
		Apply: func(i int) { ex.Apply(events[i]) }, Result: ex.Result}
}

// NewEQ1Runner binds an EQ1 executor to an R(A,B) trace.
func NewEQ1Runner(sys System, events []stream.RABEvent) *Runner {
	if sys == SysEngine {
		return newEngineRunner("eq1", len(events), func(i int) (float64, query.Tuple) {
			e := events[i]
			return e.X(), query.Tuple{"A": e.Rec.A, "B": e.Rec.B}
		})
	}
	return newEQ1Runner(sys, queries.NewEQ1(sys.strategy()), events)
}

func newEQ1Runner(sys System, ex queries.RABExecutor, events []stream.RABEvent) *Runner {
	return &Runner{Query: "eq1", System: sys, N: len(events),
		Apply: func(i int) { ex.Apply(events[i]) }, Result: ex.Result}
}

// NewQ17Runner binds a Q17 executor to a TPC-H dataset.
func NewQ17Runner(sys System, d tpch.Dataset) *Runner {
	ex := queries.NewQ17(sys.strategy(), d.Parts)
	return &Runner{Query: "q17", System: sys, N: len(d.Events),
		Apply: func(i int) { ex.Apply(d.Events[i]) }, Result: ex.Result}
}

// NewQ18Runner binds a Q18 executor to a lineitem trace.
func NewQ18Runner(sys System, events []tpch.Event) *Runner {
	ex := queries.NewQ18(sys.strategy())
	return &Runner{Query: "q18", System: sys, N: len(events),
		Apply: func(i int) { ex.Apply(events[i]) }, Result: ex.Result}
}

// FinanceTrace generates the order-book trace the benchmarks share. The
// price grid (64 levels) and volume domain (1-50) are sized so that the
// DBToaster-style strategies' distinct-value loops land in the same regime
// as the paper's real traces (see DESIGN.md's substitution notes).
func FinanceTrace(events int, bothSides bool, seed int64) []stream.Event {
	cfg := stream.OrderBookConfig{
		Seed:        seed,
		Events:      events,
		DeleteRatio: 0.05,
		PriceLevels: 64,
		BasePrice:   10000,
		Tick:        1,
		MaxVolume:   50,
		BothSides:   bothSides,
	}
	return stream.GenerateOrderBook(cfg)
}

// EQ1Trace generates the R(A,B) trace for the EQ1 micro-benchmarks.
func EQ1Trace(events int, seed int64) []stream.RABEvent {
	cfg := stream.DefaultRAB(events)
	cfg.Seed = seed
	return stream.GenerateRAB(cfg)
}
