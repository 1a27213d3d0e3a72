package bench

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Shape checks: each claim EXPERIMENTS.md makes about an experiment's shape
// is one named Check evaluated on that experiment's rows, and rpaibench
// exits 1 when one fails. Every experiment that runs more than one system
// over a trace also checks that their results agree bit for bit on every
// result read (Outcome.Digest): the traces are integer-valued, so every
// system computes exact sums.
//
// Each timing bound was set from twenty `rpaibench -exp all -quick` runs on a
// 2-vCPU Xeon @ 2.10GHz with at least 2x headroom over the worst reading: a
// lower bound is at most half the smallest ratio read, an upper bound at
// least twice the largest. The paper-scale runs (no -quick) widen every gap
// these bounds hold from below. EXPERIMENTS.md lists the readings.

// Check is one evaluated claim.
type Check struct {
	Claim    string
	Observed string
	Bound    string
	Pass     bool
}

func (c Check) String() string {
	status := "ok  "
	if !c.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s vs %s", status, c.Claim, c.Observed, c.Bound)
}

func atLeast(claim string, obs, bound float64) Check {
	return Check{claim, fmt.Sprintf("%.3g", obs), fmt.Sprintf(">= %g", bound), obs >= bound}
}

func atMost(claim string, obs, bound float64) Check {
	return Check{claim, fmt.Sprintf("%.3g", obs), fmt.Sprintf("<= %g", bound), obs <= bound}
}

func between(claim string, obs, lo, hi float64) Check {
	return Check{claim, fmt.Sprintf("%.3g", obs), fmt.Sprintf("in [%g, %g]", lo, hi), obs >= lo && obs <= hi}
}

// Agree checks that every pair of outs over the same number of events read
// bit-identical results.
func Agree(claim string, outs []Outcome) Check {
	if d := disagreement(outs); d != "" {
		return Check{claim, d + " differ", "bit-identical", false}
	}
	return Check{claim, "bit-identical", "bit-identical", true}
}

// disagreement names the first two outcomes over the same number of events
// whose results differ in any bit, or returns "" when all such pairs agree.
func disagreement(outs []Outcome) string {
	for i, a := range outs {
		for _, b := range outs[:i] {
			if a.Events == b.Events && a.Digest != b.Digest {
				return fmt.Sprintf("%s vs %s over %d events", b.System, a.System, a.Events)
			}
		}
	}
	return ""
}

// over is a/b, for two durations; NaN when b is zero.
func over(a, b time.Duration) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// Table1Checks holds each query's RPAI per-event growth to its Table 1
// class. The log-class queries stay flat; SQ1's general algorithm grows with
// its live groups. SQ2's and NQ2's cost is O(p log n) in the distinct prices
// p, which the 64-level grid caps, so the paper's O(n) and O(n log n) cannot
// show; their bound, at 2x headroom, excludes only super-linear growth.
func Table1Checks(rows []ScalingRow) []Check {
	var cs []Check
	digests := map[string][]Outcome{}
	for _, r := range rows {
		digests[r.Query] = append(digests[r.Query],
			Outcome{System: r.System, Events: r.SmallN, Digest: r.Digests[0]},
			Outcome{System: r.System, Events: r.LargeN, Digest: r.Digests[1]})
		if r.System != SysRPAI {
			continue
		}
		claim := "table1: " + r.Query + " rpai per-event growth"
		switch r.Query {
		case "sq1":
			cs = append(cs, atLeast(claim+", O(n)", r.GrowthFactor, 1.3))
		case "sq2", "nq2":
			cs = append(cs, atMost(claim+", O(p log n) with p capped", r.GrowthFactor, 4.5))
		default:
			cs = append(cs, atMost(claim+", O(log n)", r.GrowthFactor, 2.4))
		}
	}
	for _, r := range rows {
		if outs, ok := digests[r.Query]; ok {
			cs = append(cs, Agree("table1: "+r.Query+" results agree", outs))
			delete(digests, r.Query)
		}
	}
	return cs
}

// fig7Wins is, per query, the bound on RPAI's speedup over Toaster.
var fig7Wins = map[string]float64{
	"q17*": 4.3, "mst": 30, "psp": 4, "vwap": 19, "sq1": 9, "sq2": 10, "nq1": 17, "nq2": 110,
}

// Fig7Checks: RPAI wins on every query except Q18; Q17 and Q18 sit near
// parity; skew opens Q17's gap by about an order of magnitude; and every
// system, the engine included, agrees with the others and, on the naive
// prefix, with naive.
func Fig7Checks(rows []Fig7Row) []Check {
	var cs []Check
	speedup := map[string]float64{}
	for _, r := range rows {
		speedup[r.Query] = r.Speedup
		switch r.Query {
		case "q17", "q18":
			cs = append(cs, between("fig7: "+r.Query+" toaster/rpai near parity", r.Speedup, 0.4, 2.8))
		default:
			cs = append(cs, atLeast("fig7: rpai beats toaster on "+r.Query, r.Speedup, fig7Wins[r.Query]))
		}
		cs = append(cs, Agree("fig7: "+r.Query+" results agree", r.Outcomes))
	}
	return append(cs, atLeast("fig7: q17* speedup over q17's (skew opens the gap)",
		speedup["q17*"]/speedup["q17"], 3))
}

// Fig8Checks: toaster beats rpai at every size and naive beats toaster at
// the largest size naive runs; the toaster/rpai gap widens with size on MST
// and NQ2; every system run at a size agrees. SQ1's gap does not widen at
// these sizes (both of its classes are bounded by the capped group count),
// and at 100 events naive beats toaster on MST and SQ1, so neither is
// claimed.
func Fig8Checks(series []Fig8Series) []Check {
	var cs []Check
	for _, s := range series {
		bySize := map[int]map[System]time.Duration{}
		outs := map[int][]Outcome{}
		var sizes []int
		for _, p := range s.Points {
			if bySize[p.Size] == nil {
				bySize[p.Size] = map[System]time.Duration{}
				sizes = append(sizes, p.Size)
			}
			if !p.Skipped {
				bySize[p.Size][p.System] = p.Elapsed
				outs[p.Size] = append(outs[p.Size], p.Outcome)
			}
		}
		gap := func(size int) float64 { return over(bySize[size][SysToaster], bySize[size][SysRPAI]) }
		naiveAt := 0
		for _, size := range sizes {
			at := fmt.Sprintf("fig8: %s @%d", s.Query, size)
			cs = append(cs, Agree(at+" results agree", outs[size]),
				atLeast(at+" toaster/rpai", gap(size), 3))
			if _, ok := bySize[size][SysNaive]; ok {
				naiveAt = size
			}
		}
		if naiveAt > 0 {
			cs = append(cs, atLeast(fmt.Sprintf("fig8: %s @%d naive/toaster", s.Query, naiveAt),
				over(bySize[naiveAt][SysNaive], bySize[naiveAt][SysToaster]), fig8NaiveOverToaster[s.Query]))
		}
		if s.Query != "sq1" && len(sizes) > 1 {
			first, last := sizes[0], sizes[len(sizes)-1]
			cs = append(cs, atLeast(fmt.Sprintf("fig8: %s toaster/rpai gap widens @%d -> @%d", s.Query, first, last),
				gap(last)/gap(first), 2.5))
		}
	}
	return cs
}

// fig8NaiveOverToaster is, per query, the bound on naive's time over
// toaster's at the largest size naive runs.
var fig8NaiveOverToaster = map[string]float64{"mst": 1.8, "sq1": 1.05, "nq2": 3}

// Fig8dChecks: on skewed data RPAI's gap over Toaster is larger than on
// uniform data, at every scale; both systems agree at every point. (The
// uniform near-parity claim is Figure 7's Q17 check: at SF 0.1 a Q17 replay
// takes about 150µs, and this figure's uniform ratio ranged 0.3-2.1 over the
// runs that set the bounds.)
func Fig8dChecks(points []Fig8dPoint) []Check {
	type key struct {
		sf     float64
		skewed bool
	}
	times := map[key]map[System]time.Duration{}
	outs := map[key][]Outcome{}
	var scales []float64
	for _, p := range points {
		k := key{p.Scale, p.Skewed}
		if times[k] == nil {
			times[k] = map[System]time.Duration{}
			if !slices.Contains(scales, p.Scale) {
				scales = append(scales, p.Scale)
			}
		}
		times[k][p.System] = p.Elapsed
		outs[k] = append(outs[k], p.Outcome)
	}
	var cs []Check
	for _, sf := range scales {
		gap := func(skewed bool) float64 {
			t := times[key{sf, skewed}]
			return over(t[SysToaster], t[SysRPAI])
		}
		at := fmt.Sprintf("fig8d: q17 @sf %g", sf)
		cs = append(cs, Agree(at+" uniform results agree", outs[key{sf, false}]),
			Agree(at+" skewed results agree", outs[key{sf, true}]),
			atLeast(at+" skewed gap over uniform gap", gap(true)/gap(false), 2.2))
	}
	return cs
}

// Fig9Checks: the cumulative-time panel's ordering — naive above toaster
// where naive stops, toaster above rpai at the end — and agreement among
// the curves over the whole trace. The rate panel is not checked: a -quick
// window of 100 events takes tens of microseconds under RPAI, within timer
// and GC noise. Neither is the memory panel, which the paper itself calls
// runtime-specific.
func Fig9Checks(curves []Fig9Curve) []Check {
	byQuery := map[string]map[System]Fig9Curve{}
	outs := map[string][]Outcome{}
	var queries []string
	for _, c := range curves {
		if byQuery[c.Query] == nil {
			byQuery[c.Query] = map[System]Fig9Curve{}
			queries = append(queries, c.Query)
		}
		byQuery[c.Query][c.System] = c
		outs[c.Query] = append(outs[c.Query], c.Outcome)
	}
	// cumAt is a curve's cumulative time, in seconds, after n events.
	cumAt := func(c Fig9Curve, n int) float64 {
		for _, s := range c.Samples {
			if s.Processed >= n {
				return s.CumSeconds
			}
		}
		return math.NaN()
	}
	var cs []Check
	for _, q := range queries {
		naive, toaster, rpai := byQuery[q][SysNaive], byQuery[q][SysToaster], byQuery[q][SysRPAI]
		cs = append(cs, Agree("fig9: "+q+" results agree", outs[q]),
			atLeast(fmt.Sprintf("fig9: %s naive/toaster cumulative time @%d", q, naive.Events),
				naive.Elapsed.Seconds()/cumAt(toaster, naive.Events), fig9NaiveOverToaster[q]),
			atLeast("fig9: "+q+" toaster/rpai cumulative time", over(toaster.Elapsed, rpai.Elapsed), fig9ToasterOverRPAI[q]))
	}
	return cs
}

// Per query, the bounds on Figure 9's cumulative-time ratios.
var (
	fig9NaiveOverToaster = map[string]float64{"mst": 1.5, "vwap": 7, "nq2": 5}
	fig9ToasterOverRPAI  = map[string]float64{"mst": 30, "vwap": 30, "nq2": 120}
)

// CadenceChecks: the Toaster executor's cost lives in the result
// recomputation, so batching amortizes it away; RPAI's total barely depends
// on the cadence and wins at per-event refresh; every system agrees at every
// cadence.
func CadenceChecks(points []CadencePoint) []Check {
	times := map[System]map[int]time.Duration{}
	outs := map[int][]Outcome{}
	var batches []int
	for _, p := range points {
		if times[p.System] == nil {
			times[p.System] = map[int]time.Duration{}
		}
		times[p.System][p.Batch] = p.Elapsed
		if outs[p.Batch] == nil {
			batches = append(batches, p.Batch)
		}
		outs[p.Batch] = append(outs[p.Batch], p.Outcome)
	}
	var cs []Check
	for _, b := range batches {
		cs = append(cs, Agree(fmt.Sprintf("cadence: batch %d results agree", b), outs[b]))
	}
	first, last := slices.Min(batches), slices.Max(batches)
	var lo, hi time.Duration = math.MaxInt64, 0
	for _, t := range times[SysRPAI] {
		lo, hi = min(lo, t), max(hi, t)
	}
	return append(cs,
		atLeast(fmt.Sprintf("cadence: toaster batch %d over batch %d", first, last),
			over(times[SysToaster][first], times[SysToaster][last]), 70),
		atMost("cadence: rpai slowest cadence over fastest", over(hi, lo), 3.2),
		atLeast(fmt.Sprintf("cadence: toaster/rpai at batch %d", first),
			over(times[SysToaster][first], times[SysRPAI][first]), 40))
}

// LatencyChecks: RPAI's per-event refresh latency beats Toaster's by two
// orders of magnitude at the median and at p99; every system agrees.
func LatencyChecks(rows []LatencyRow) []Check {
	var toaster, rpai LatencyRow
	var outs []Outcome
	for _, r := range rows {
		outs = append(outs, r.Outcome)
		switch r.System {
		case SysToaster:
			toaster = r
		case SysRPAI:
			rpai = r
		}
	}
	return []Check{
		Agree("latency: results agree", outs),
		atLeast("latency: toaster/rpai p50", over(toaster.P50, rpai.P50), 45),
		atLeast("latency: toaster/rpai p99", over(toaster.P99, rpai.P99), 22),
	}
}

// AblationChecks: the RPAI tree's O(log n) GetSum and ShiftKeys against the
// PAI map's O(n) scans; the balanced tree's negative shift no slower than
// the paper's unbalanced Algorithm 2 beyond the bound; VWAP on the RPAI tree
// ahead of the PAI map; and agreement between both VWAP indexes and among
// every EQ1 system and index.
func AblationChecks(rows []AblationRow) []Check {
	perOp := map[string]time.Duration{}
	outs := map[string][]Outcome{}
	for _, r := range rows {
		perOp[r.Group+"/"+r.Variant] = r.PerOp
		if r.Events > 0 {
			o := r.Outcome
			o.System = System(r.Variant)
			outs[r.Group] = append(outs[r.Group], o)
		}
	}
	gap := func(group, slow, fast string) float64 {
		return over(perOp[group+"/"+slow], perOp[group+"/"+fast])
	}
	return []Check{
		atLeast("ablation: getsum pai/arena", gap("getsum", "pai", "arena"), 100),
		atLeast("ablation: shift pai/arena", gap("shift", "pai", "arena"), 100),
		atMost("ablation: shiftneg balanced/reference", gap("shiftneg", "balanced", "reference"), 3),
		atLeast("ablation: vwap pai/arena", gap("vwap", "pai", "arena"), 3.5),
		Agree("ablation: vwap results agree", outs["vwap"]),
		Agree("ablation: eq1 results agree", outs["eq1"]),
	}
}
