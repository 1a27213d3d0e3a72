// This file holds the testing.B counterparts of the paper's tables
// and figures. Each benchmark replays a fixed workload through one system,
// so `go test -bench` reports per-replay costs whose ratios reproduce the
// paper's shapes:
//
//   - BenchmarkTable1_*: per-event cost by query and system (Table 1),
//   - BenchmarkFig7_*: whole-trace time per query, Toaster vs RPAI (Fig. 7),
//   - BenchmarkFig8_*: trace-size sweep for MST/SQ1/NQ2 (Figs. 8a-8c),
//   - BenchmarkFig8d_*: Q17 across uniform/skewed TPC-H data (Fig. 8d),
//   - BenchmarkFig9_*: the Figure 9 replay workloads,
//   - BenchmarkIndex_* / BenchmarkAblation_*: the data-structure ablations
//     behind section 3 (RPAI tree vs PAI map vs sorted slice vs the paper's
//     literal unbalanced algorithms).
//
// The rpaibench command produces the paper-style formatted tables; these
// benchmarks are the `go test` entry points for the same experiments.
package rpai_test

import (
	"math/rand"
	"testing"

	"rpai/internal/aggindex"
	"rpai/internal/bench"
	"rpai/internal/engine"
	"rpai/internal/queries"
	"rpai/internal/query"
	"rpai/internal/rpai"
	"rpai/internal/sqlparse"
	"rpai/internal/tpch"
)

// replay runs a prepared runner once per b.N iteration; generating the
// trace before the call is not timed.
func replay(b *testing.B, mk func() *bench.Runner) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := mk()
		b.StartTimer()
		for j := 0; j < r.N; j++ {
			r.Apply(j)
		}
	}
}

func financeBench(b *testing.B, query string, sys bench.System, events int, both bool) {
	trace := bench.FinanceTrace(events, both, 1)
	replay(b, func() *bench.Runner { return bench.NewFinanceRunner(query, sys, trace) })
}

// --- Table 1: per-event cost per query and system ---

func BenchmarkTable1_VWAP_Naive(b *testing.B) { financeBench(b, "vwap", bench.SysNaive, 400, false) }
func BenchmarkTable1_VWAP_Toaster(b *testing.B) {
	financeBench(b, "vwap", bench.SysToaster, 400, false)
}
func BenchmarkTable1_VWAP_RPAI(b *testing.B)   { financeBench(b, "vwap", bench.SysRPAI, 400, false) }
func BenchmarkTable1_MST_Naive(b *testing.B)   { financeBench(b, "mst", bench.SysNaive, 400, true) }
func BenchmarkTable1_MST_Toaster(b *testing.B) { financeBench(b, "mst", bench.SysToaster, 400, true) }
func BenchmarkTable1_MST_RPAI(b *testing.B)    { financeBench(b, "mst", bench.SysRPAI, 400, true) }
func BenchmarkTable1_PSP_Toaster(b *testing.B) { financeBench(b, "psp", bench.SysToaster, 400, true) }
func BenchmarkTable1_PSP_RPAI(b *testing.B)    { financeBench(b, "psp", bench.SysRPAI, 400, true) }
func BenchmarkTable1_SQ1_Toaster(b *testing.B) { financeBench(b, "sq1", bench.SysToaster, 400, false) }
func BenchmarkTable1_SQ1_RPAI(b *testing.B)    { financeBench(b, "sq1", bench.SysRPAI, 400, false) }
func BenchmarkTable1_SQ2_Toaster(b *testing.B) { financeBench(b, "sq2", bench.SysToaster, 400, false) }
func BenchmarkTable1_SQ2_RPAI(b *testing.B)    { financeBench(b, "sq2", bench.SysRPAI, 400, false) }
func BenchmarkTable1_NQ1_Toaster(b *testing.B) { financeBench(b, "nq1", bench.SysToaster, 400, false) }
func BenchmarkTable1_NQ1_RPAI(b *testing.B)    { financeBench(b, "nq1", bench.SysRPAI, 400, false) }
func BenchmarkTable1_NQ2_Toaster(b *testing.B) { financeBench(b, "nq2", bench.SysToaster, 400, false) }
func BenchmarkTable1_NQ2_RPAI(b *testing.B)    { financeBench(b, "nq2", bench.SysRPAI, 400, false) }

// --- Figure 7: whole-trace time per query (2k-event traces; the CLI runs
// the paper-scale 10k) ---

func BenchmarkFig7_VWAP_Toaster(b *testing.B) { financeBench(b, "vwap", bench.SysToaster, 2000, false) }
func BenchmarkFig7_VWAP_RPAI(b *testing.B)    { financeBench(b, "vwap", bench.SysRPAI, 2000, false) }
func BenchmarkFig7_MST_Toaster(b *testing.B)  { financeBench(b, "mst", bench.SysToaster, 2000, true) }
func BenchmarkFig7_MST_RPAI(b *testing.B)     { financeBench(b, "mst", bench.SysRPAI, 2000, true) }
func BenchmarkFig7_PSP_Toaster(b *testing.B)  { financeBench(b, "psp", bench.SysToaster, 2000, true) }
func BenchmarkFig7_PSP_RPAI(b *testing.B)     { financeBench(b, "psp", bench.SysRPAI, 2000, true) }
func BenchmarkFig7_SQ1_Toaster(b *testing.B)  { financeBench(b, "sq1", bench.SysToaster, 2000, false) }
func BenchmarkFig7_SQ1_RPAI(b *testing.B)     { financeBench(b, "sq1", bench.SysRPAI, 2000, false) }
func BenchmarkFig7_SQ2_Toaster(b *testing.B)  { financeBench(b, "sq2", bench.SysToaster, 2000, false) }
func BenchmarkFig7_SQ2_RPAI(b *testing.B)     { financeBench(b, "sq2", bench.SysRPAI, 2000, false) }
func BenchmarkFig7_NQ1_Toaster(b *testing.B)  { financeBench(b, "nq1", bench.SysToaster, 2000, false) }
func BenchmarkFig7_NQ1_RPAI(b *testing.B)     { financeBench(b, "nq1", bench.SysRPAI, 2000, false) }
func BenchmarkFig7_NQ2_Toaster(b *testing.B)  { financeBench(b, "nq2", bench.SysToaster, 2000, false) }
func BenchmarkFig7_NQ2_RPAI(b *testing.B)     { financeBench(b, "nq2", bench.SysRPAI, 2000, false) }

func tpchBench(b *testing.B, sys bench.System, skewed, q18 bool) {
	d := tpch.Generate(tpch.DefaultConfig(0.2, skewed))
	replay(b, func() *bench.Runner {
		if q18 {
			return bench.NewQ18Runner(sys, d.Events)
		}
		return bench.NewQ17Runner(sys, d)
	})
}

func BenchmarkFig7_Q17_Toaster(b *testing.B)     { tpchBench(b, bench.SysToaster, false, false) }
func BenchmarkFig7_Q17_RPAI(b *testing.B)        { tpchBench(b, bench.SysRPAI, false, false) }
func BenchmarkFig7_Q17Star_Toaster(b *testing.B) { tpchBench(b, bench.SysToaster, true, false) }
func BenchmarkFig7_Q17Star_RPAI(b *testing.B)    { tpchBench(b, bench.SysRPAI, true, false) }
func BenchmarkFig7_Q18_Toaster(b *testing.B)     { tpchBench(b, bench.SysToaster, false, true) }
func BenchmarkFig7_Q18_RPAI(b *testing.B)        { tpchBench(b, bench.SysRPAI, false, true) }

// EQ1 (Example 2.1) is analyzed in section 2 rather than the evaluation, but
// its three complexity classes are benchmarked the same way.
func eq1Bench(b *testing.B, sys bench.System, events int) {
	trace := bench.EQ1Trace(events, 1)
	replay(b, func() *bench.Runner { return bench.NewEQ1Runner(sys, trace) })
}

func BenchmarkEQ1_Naive(b *testing.B)   { eq1Bench(b, bench.SysNaive, 400) }
func BenchmarkEQ1_Toaster(b *testing.B) { eq1Bench(b, bench.SysToaster, 400) }
func BenchmarkEQ1_RPAI(b *testing.B)    { eq1Bench(b, bench.SysRPAI, 400) }

// --- Figures 8a-8c: trace-size sweep (naive only at the smallest sizes) ---

func BenchmarkFig8a_MST_Naive_100(b *testing.B)  { financeBench(b, "mst", bench.SysNaive, 100, true) }
func BenchmarkFig8a_MST_Naive_1000(b *testing.B) { financeBench(b, "mst", bench.SysNaive, 1000, true) }
func BenchmarkFig8a_MST_Toaster_1000(b *testing.B) {
	financeBench(b, "mst", bench.SysToaster, 1000, true)
}
func BenchmarkFig8a_MST_Toaster_10000(b *testing.B) {
	financeBench(b, "mst", bench.SysToaster, 10000, true)
}
func BenchmarkFig8a_MST_RPAI_1000(b *testing.B)  { financeBench(b, "mst", bench.SysRPAI, 1000, true) }
func BenchmarkFig8a_MST_RPAI_10000(b *testing.B) { financeBench(b, "mst", bench.SysRPAI, 10000, true) }
func BenchmarkFig8b_SQ1_Naive_100(b *testing.B)  { financeBench(b, "sq1", bench.SysNaive, 100, false) }
func BenchmarkFig8b_SQ1_Naive_1000(b *testing.B) { financeBench(b, "sq1", bench.SysNaive, 1000, false) }
func BenchmarkFig8b_SQ1_Toaster_1000(b *testing.B) {
	financeBench(b, "sq1", bench.SysToaster, 1000, false)
}
func BenchmarkFig8b_SQ1_RPAI_1000(b *testing.B)  { financeBench(b, "sq1", bench.SysRPAI, 1000, false) }
func BenchmarkFig8b_SQ1_RPAI_10000(b *testing.B) { financeBench(b, "sq1", bench.SysRPAI, 10000, false) }
func BenchmarkFig8c_NQ2_Naive_100(b *testing.B)  { financeBench(b, "nq2", bench.SysNaive, 100, false) }
func BenchmarkFig8c_NQ2_Toaster_1000(b *testing.B) {
	financeBench(b, "nq2", bench.SysToaster, 1000, false)
}
func BenchmarkFig8c_NQ2_RPAI_1000(b *testing.B)  { financeBench(b, "nq2", bench.SysRPAI, 1000, false) }
func BenchmarkFig8c_NQ2_RPAI_10000(b *testing.B) { financeBench(b, "nq2", bench.SysRPAI, 10000, false) }

// --- Figure 8d: Q17 uniform vs skewed ---

func BenchmarkFig8d_Q17_Uniform_Toaster(b *testing.B) { tpchBench(b, bench.SysToaster, false, false) }
func BenchmarkFig8d_Q17_Uniform_RPAI(b *testing.B)    { tpchBench(b, bench.SysRPAI, false, false) }
func BenchmarkFig8d_Q17_Skewed_Toaster(b *testing.B)  { tpchBench(b, bench.SysToaster, true, false) }
func BenchmarkFig8d_Q17_Skewed_RPAI(b *testing.B)     { tpchBench(b, bench.SysRPAI, true, false) }

// --- Figure 9: the replay workloads behind the memory/rate/time curves
// (the sampled curves themselves come from `rpaibench -exp fig9`) ---

func BenchmarkFig9a_MST_RPAI(b *testing.B)    { financeBench(b, "mst", bench.SysRPAI, 4000, true) }
func BenchmarkFig9a_MST_Toaster(b *testing.B) { financeBench(b, "mst", bench.SysToaster, 4000, true) }
func BenchmarkFig9b_VWAP_RPAI(b *testing.B)   { financeBench(b, "vwap", bench.SysRPAI, 4000, false) }
func BenchmarkFig9b_VWAP_Toaster(b *testing.B) {
	financeBench(b, "vwap", bench.SysToaster, 4000, false)
}
func BenchmarkFig9c_NQ2_RPAI(b *testing.B) { financeBench(b, "nq2", bench.SysRPAI, 4000, false) }

// --- Section 3 ablations: index-structure micro-benchmarks ---

func indexOps(n int, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	queries := make([]float64, n)
	for i := range keys {
		keys[i] = float64(rng.Intn(10 * n))
		queries[i] = float64(rng.Intn(10 * n))
	}
	return keys, queries
}

func benchIndexGetSum(b *testing.B, kind aggindex.Kind) {
	keys, queries := indexOps(10000, 1)
	idx := aggindex.New(kind)
	for _, k := range keys {
		idx.Add(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.GetSum(queries[i%len(queries)])
	}
}

func BenchmarkIndex_GetSum_RPAI(b *testing.B)   { benchIndexGetSum(b, aggindex.KindArena) }
func BenchmarkIndex_GetSum_PAI(b *testing.B)    { benchIndexGetSum(b, aggindex.KindPAI) }
func BenchmarkIndex_GetSum_Sorted(b *testing.B) { benchIndexGetSum(b, aggindex.KindSorted) }

func benchIndexShift(b *testing.B, kind aggindex.Kind) {
	keys, queries := indexOps(10000, 2)
	idx := aggindex.New(kind)
	for _, k := range keys {
		idx.Add(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate +1/-1 so keys stay in a bounded band.
		d := float64(1 - 2*(i&1))
		idx.ShiftKeys(queries[i%len(queries)], d)
	}
}

func BenchmarkIndex_ShiftKeys_RPAI(b *testing.B)   { benchIndexShift(b, aggindex.KindArena) }
func BenchmarkIndex_ShiftKeys_PAI(b *testing.B)    { benchIndexShift(b, aggindex.KindPAI) }
func BenchmarkIndex_ShiftKeys_Sorted(b *testing.B) { benchIndexShift(b, aggindex.KindSorted) }

func benchIndexAdd(b *testing.B, kind aggindex.Kind) {
	keys, _ := indexOps(100000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	idx := aggindex.New(kind)
	for i := 0; i < b.N; i++ {
		idx.Add(keys[i%len(keys)], 1)
	}
}

func BenchmarkIndex_Add_RPAI(b *testing.B) { benchIndexAdd(b, aggindex.KindArena) }
func BenchmarkIndex_Add_PAI(b *testing.B)  { benchIndexAdd(b, aggindex.KindPAI) }

// BenchmarkAblation_ShiftNeg compares the balanced tree's negative shift
// (range extraction) against the paper's literal Algorithm 2 on the
// unbalanced reference tree, on the aggregate-maintenance access pattern
// where at most one key collides per shift (section 3.2.4).
func BenchmarkAblation_ShiftNeg_Balanced(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t := rpai.New()
	for i := 0; i < 10000; i++ {
		t.Add(float64(rng.Intn(1000000)), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := float64(rng.Intn(1000000))
		t.ShiftKeys(k, -1)
		t.ShiftKeys(k, 1)
	}
}

func BenchmarkAblation_ShiftNeg_Reference(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t := rpai.NewReference()
	for i := 0; i < 10000; i++ {
		t.Add(float64(rng.Intn(1000000)), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := float64(rng.Intn(1000000))
		t.ShiftKeys(k, -1)
		t.ShiftKeys(k, 1)
	}
}

// BenchmarkAblation_VWAPIndexKind swaps the aggregate-index implementation
// inside the VWAP executor: the end-to-end version of section 2.2.3's
// PAI-vs-RPAI comparison.
func benchVWAPKind(b *testing.B, kind aggindex.Kind) {
	trace := bench.FinanceTrace(2000, false, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex := queriesVWAP(kind)
		b.StartTimer()
		for _, e := range trace {
			ex.Apply(e)
			ex.Result()
		}
	}
}

func BenchmarkAblation_VWAP_RPAITree(b *testing.B)    { benchVWAPKind(b, aggindex.KindArena) }
func BenchmarkAblation_VWAP_PAIMap(b *testing.B)      { benchVWAPKind(b, aggindex.KindPAI) }
func BenchmarkAblation_VWAP_SortedSlice(b *testing.B) { benchVWAPKind(b, aggindex.KindSorted) }

// queriesVWAP constructs a VWAP executor over the given index kind via the
// exported ablation hook.
func queriesVWAP(kind aggindex.Kind) queries.BidsExecutor {
	return queries.NewVWAPWithIndex(kind)
}

// B-tree RPAI ablations: the section 3.2.5 closing-note variant against the
// binary tree.
func BenchmarkIndex_GetSum_BTree(b *testing.B)    { benchIndexGetSum(b, aggindex.KindBTree) }
func BenchmarkIndex_ShiftKeys_BTree(b *testing.B) { benchIndexShift(b, aggindex.KindBTree) }
func BenchmarkIndex_Add_BTree(b *testing.B)       { benchIndexAdd(b, aggindex.KindBTree) }
func BenchmarkAblation_VWAP_BTree(b *testing.B)   { benchVWAPKind(b, aggindex.KindBTree) }

// Mini-batch cadence benchmarks (the intro's mini-batch use case): the same
// trace with the result read once per event vs once per 100 events.
func benchBatch(b *testing.B, sys bench.System, batch int) {
	cfg := bench.CadenceConfig{Query: "vwap", Events: 2000, BatchSizes: []int{batch}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Cadence(cfg)
	}
}

func BenchmarkBatch_VWAP_Toaster_Every1(b *testing.B)   { benchBatch(b, bench.SysToaster, 1) }
func BenchmarkBatch_VWAP_Toaster_Every100(b *testing.B) { benchBatch(b, bench.SysToaster, 100) }
func BenchmarkBatch_VWAP_RPAI_Every1(b *testing.B)      { benchBatch(b, bench.SysRPAI, 1) }
func BenchmarkBatch_VWAP_RPAI_Every100(b *testing.B)    { benchBatch(b, bench.SysRPAI, 100) }

// Generic-engine overhead (ROADMAP item 8): each BenchmarkEngine_*_Generic
// replays the trace its _HandCoded partner replays — the 10 000-event
// Figure 7 trace — through the executor the planner builds from the query's
// SQL, reading Result after every event as the hand-coded runner does. VWAP
// and EQ1 run on the aggregate-index executors and SQ1, SQ2, NQ1 and NQ2 on
// the general algorithm, each fed rows as the server feeds it (ApplyRows).
// MST and PSP join two relations, which the grammar has no FROM for, so
// they have no generic side. Both sides get their events prebuilt, so the
// ratio of a pair is the cost of plan generality.
const engineEvents = 10000

// Each query's SQL, as the queries package documents it.
const (
	engineVWAP = `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	engineSQ1 = `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1 WHERE b1.volume <= b.volume)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	engineSQ2 = `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE 2 * b2.price <= b.price)`
	engineNQ1 = `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	   < (SELECT Sum(b2.volume) FROM bids b2
	      WHERE b2.price <= b.price
	        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3)
	            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`
	engineNQ2 = `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	   < (SELECT Sum(b2.volume) FROM bids b2
	      WHERE b2.price <= b.price
	        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3 WHERE b3.price <= b.price)
	            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`
	engineEQ1 = `SELECT Sum(r.A * r.B) FROM R r
	WHERE 0.5 * (SELECT Sum(r1.B) FROM R r1)
	    = (SELECT Sum(r2.B) FROM R r2 WHERE r2.A = r.A)`
)

// engineBench replays n events, event i being event(i), each laid out as a
// one-row batch, through a fresh executor of sql per iteration.
func engineBench(b *testing.B, sql string, n int, event func(i int) engine.Event) {
	q := sqlparse.MustParse(sql)
	schema := query.NewSchema(q.Columns()...)
	p, err := engine.Prepare(q, schema)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]engine.Rows, n)
	for i := range rows {
		e := event(i)
		rows[i].Reset(schema.Len())
		rows[i].Project(e.X, schema.Cols(), e.Tuple)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex := p.New()
		b.StartTimer()
		for j := range rows {
			ex.ApplyRows(&rows[j])
			ex.Result()
		}
	}
}

// bidsEngineBench is engineBench over the bids-only finance trace.
func bidsEngineBench(b *testing.B, sql string) {
	trace := bench.FinanceTrace(engineEvents, false, 1)
	engineBench(b, sql, len(trace), func(i int) engine.Event {
		e := trace[i]
		return engine.Event{X: e.X(), Tuple: query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume}}
	})
}

func BenchmarkEngine_VWAP_Generic(b *testing.B) { bidsEngineBench(b, engineVWAP) }
func BenchmarkEngine_VWAP_HandCoded(b *testing.B) {
	financeBench(b, "vwap", bench.SysRPAI, engineEvents, false)
}
func BenchmarkEngine_SQ1_Generic(b *testing.B) { bidsEngineBench(b, engineSQ1) }
func BenchmarkEngine_SQ1_HandCoded(b *testing.B) {
	financeBench(b, "sq1", bench.SysRPAI, engineEvents, false)
}
func BenchmarkEngine_SQ2_Generic(b *testing.B) { bidsEngineBench(b, engineSQ2) }
func BenchmarkEngine_SQ2_HandCoded(b *testing.B) {
	financeBench(b, "sq2", bench.SysRPAI, engineEvents, false)
}
func BenchmarkEngine_NQ1_Generic(b *testing.B) { bidsEngineBench(b, engineNQ1) }
func BenchmarkEngine_NQ1_HandCoded(b *testing.B) {
	financeBench(b, "nq1", bench.SysRPAI, engineEvents, false)
}
func BenchmarkEngine_NQ2_Generic(b *testing.B) { bidsEngineBench(b, engineNQ2) }
func BenchmarkEngine_NQ2_HandCoded(b *testing.B) {
	financeBench(b, "nq2", bench.SysRPAI, engineEvents, false)
}
func BenchmarkEngine_EQ1_Generic(b *testing.B) {
	trace := bench.EQ1Trace(engineEvents, 1)
	engineBench(b, engineEQ1, len(trace), func(i int) engine.Event {
		e := trace[i]
		return engine.Event{X: e.X(), Tuple: query.Tuple{"A": e.Rec.A, "B": e.Rec.B}}
	})
}
func BenchmarkEngine_EQ1_HandCoded(b *testing.B) { eq1Bench(b, bench.SysRPAI, engineEvents) }

// The full-benchmark-family extras (no nested aggregates; both systems
// incremental).
func groupedQueryBench(b *testing.B, mk func(queries.Strategy) queries.GroupedBidsExecutor, sys queries.Strategy) {
	trace := bench.FinanceTrace(2000, true, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex := mk(sys)
		b.StartTimer()
		for _, e := range trace {
			ex.Apply(e)
			ex.Result()
		}
	}
}

func BenchmarkAXF_Naive(b *testing.B)       { groupedQueryBench(b, queries.NewAXF, queries.Naive) }
func BenchmarkAXF_Incremental(b *testing.B) { groupedQueryBench(b, queries.NewAXF, queries.RPAI) }
func BenchmarkBSP_Naive(b *testing.B)       { groupedQueryBench(b, queries.NewBSP, queries.Naive) }
func BenchmarkBSP_Incremental(b *testing.B) { groupedQueryBench(b, queries.NewBSP, queries.RPAI) }

// Fenwick-tree ablation: the related-work baseline of section 6 —
// logarithmic getSum, linear key shifts.
func BenchmarkIndex_GetSum_Fenwick(b *testing.B)    { benchIndexGetSum(b, aggindex.KindFenwick) }
func BenchmarkIndex_ShiftKeys_Fenwick(b *testing.B) { benchIndexShift(b, aggindex.KindFenwick) }
func BenchmarkAblation_VWAP_Fenwick(b *testing.B)   { benchVWAPKind(b, aggindex.KindFenwick) }

// Equality-correlation index ablation (section 2.1.3): hash-based point
// moves vs tree-based for EQ1.
func benchEQ1Kind(b *testing.B, kind aggindex.Kind) {
	trace := bench.EQ1Trace(2000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex := queries.NewEQ1WithIndex(kind)
		b.StartTimer()
		for _, e := range trace {
			ex.Apply(e)
			ex.Result()
		}
	}
}

func BenchmarkAblation_EQ1_PAIMap(b *testing.B)   { benchEQ1Kind(b, aggindex.KindPAI) }
func BenchmarkAblation_EQ1_RPAITree(b *testing.B) { benchEQ1Kind(b, aggindex.KindArena) }
