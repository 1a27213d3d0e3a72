package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FormatFig7 renders Figure 7's table: total execution time per query under
// each system, the relative speedup, the engine's time over the hand-written
// RPAI executor's, and whether every system's results agreed bit for bit.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: relative execution time (RPAI vs DBToaster-style; engine = the SQL engine)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %10s %12s %8s\n", "query", "toaster", "rpai", "engine", "speedup", "engine/rpai", "agree")
	for _, r := range rows {
		engine, ratio := "-", "-"
		if r.Engine > 0 {
			engine, ratio = fmtDur(r.Engine), fmt.Sprintf("%.2fx", float64(r.Engine)/float64(r.RPAI))
		}
		fmt.Fprintf(&b, "%-8s %14s %14s %14s %9.1fx %12s %8v\n",
			r.Query, fmtDur(r.Toaster), fmtDur(r.RPAI), engine, r.Speedup, ratio, disagreement(r.Outcomes) == "")
	}
	return b.String()
}

// FormatFig8 renders the Figure 8a-8c scalability series.
func FormatFig8(series []Fig8Series) string {
	var b strings.Builder
	labels := map[string]string{"mst": "8a MST", "sq1": "8b SQ1", "nq2": "8c NQ2"}
	for _, s := range series {
		fmt.Fprintf(&b, "Figure %s: running time vs trace size\n", labels[s.Query])
		fmt.Fprintf(&b, "%-8s %14s %14s %14s %14s\n", "size", "naive", "toaster", "rpai", "engine")
		bySize := map[int]map[System]Fig8Point{}
		var sizes []int
		for _, p := range s.Points {
			if bySize[p.Size] == nil {
				bySize[p.Size] = map[System]Fig8Point{}
				sizes = append(sizes, p.Size)
			}
			bySize[p.Size][p.System] = p
		}
		for _, size := range sizes {
			row := bySize[size]
			fmt.Fprintf(&b, "%-8d %14s %14s %14s %14s\n", size, fmtPoint(row, SysNaive),
				fmtPoint(row, SysToaster), fmtPoint(row, SysRPAI), fmtPoint(row, SysEngine))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig8d renders the Q17 scale-factor sweep.
func FormatFig8d(points []Fig8dPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8d: Q17 running time vs scale factor (uniform and skewed)\n")
	fmt.Fprintf(&b, "%-8s %16s %16s %16s %16s\n",
		"sf", "toaster", "rpai", "toaster*", "rpai*")
	type key struct {
		sf     float64
		skewed bool
		sys    System
	}
	m := map[key]time.Duration{}
	var sfs []float64
	seen := map[float64]bool{}
	for _, p := range points {
		m[key{p.Scale, p.Skewed, p.System}] = p.Elapsed
		if !seen[p.Scale] {
			seen[p.Scale] = true
			sfs = append(sfs, p.Scale)
		}
	}
	for _, sf := range sfs {
		fmt.Fprintf(&b, "%-8g %16s %16s %16s %16s\n", sf,
			fmtDur(m[key{sf, false, SysToaster}]), fmtDur(m[key{sf, false, SysRPAI}]),
			fmtDur(m[key{sf, true, SysToaster}]), fmtDur(m[key{sf, true, SysRPAI}]))
	}
	return b.String()
}

// FormatFig9 renders the sampled memory / rate / time curves.
func FormatFig9(curves []Fig9Curve) string {
	var b strings.Builder
	labels := map[string]string{"mst": "9a MST", "vwap": "9b VWAP", "nq2": "9c NQ2"}
	current := ""
	for _, c := range curves {
		if c.Query != current {
			current = c.Query
			fmt.Fprintf(&b, "Figure %s: memory (MiB) / rate (rec/s) / cumulative time (s)\n", labels[c.Query])
		}
		fmt.Fprintf(&b, "  system=%s\n", c.System)
		fmt.Fprintf(&b, "  %-10s %10s %14s %12s\n", "processed", "heap MiB", "rate rec/s", "cum s")
		for _, s := range c.Samples {
			fmt.Fprintf(&b, "  %-10d %10.1f %14.0f %12.3f\n", s.Processed, s.HeapMB, s.Rate, s.CumSeconds)
		}
	}
	return b.String()
}

// FormatTable1 renders the complexity table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: optimizations and per-update complexity\n")
	fmt.Fprintf(&b, "%-16s %4s %5s %12s %12s\n", "queries", "GA", "Aggr", "DBToaster", "RPAI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %4s %5s %12s %12s\n",
			r.Queries, mark(r.GeneralAlg), mark(r.AggIndex), r.Toaster, r.RPAI)
	}
	return b.String()
}

// FormatScaling renders the measured Table 1 validation.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (measured): per-event time growth, %d -> %d events\n",
		rows[0].SmallN, rows[0].LargeN)
	fmt.Fprintf(&b, "%-8s %-8s %14s %14s %8s\n", "query", "system", "small/op", "large/op", "growth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %14s %14s %7.1fx\n",
			r.Query, r.System, fmtDur(r.SmallPerOp), fmtDur(r.LargePerOp), r.GrowthFactor)
	}
	return b.String()
}

func fmtPoint(row map[System]Fig8Point, sys System) string {
	p, ok := row[sys]
	if !ok || p.Skipped {
		return "-"
	}
	return fmtDur(p.Elapsed)
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// FormatCadence renders the refresh-cadence experiment.
func FormatCadence(query string, points []CadencePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mini-batch refresh cadence (%s): total time per trace\n", query)
	fmt.Fprintf(&b, "%-8s %14s %14s %14s\n", "batch", "toaster", "rpai", "engine")
	byBatch := map[int]map[System]time.Duration{}
	var batches []int
	for _, p := range points {
		if byBatch[p.Batch] == nil {
			byBatch[p.Batch] = map[System]time.Duration{}
			batches = append(batches, p.Batch)
		}
		byBatch[p.Batch][p.System] = p.Elapsed
	}
	sort.Ints(batches)
	for _, bs := range batches {
		fmt.Fprintf(&b, "%-8d %14s %14s %14s\n", bs, fmtDur(byBatch[bs][SysToaster]),
			fmtDur(byBatch[bs][SysRPAI]), fmtDur(byBatch[bs][SysEngine]))
	}
	return b.String()
}

// FormatLatency renders the per-event latency distributions.
func FormatLatency(query string, rows []LatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-event refresh latency (%s)\n", query)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n", "system", "p50", "p95", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n",
			r.System, fmtDur(r.P50), fmtDur(r.P95), fmtDur(r.P99), fmtDur(r.Max))
	}
	return b.String()
}

// FormatAblation renders the section 3 ablations.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (section 3): time per index operation, or per event of a replay (vwap, eq1)\n")
	fmt.Fprintf(&b, "%-10s %-14s %12s\n", "group", "variant", "per-op")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-14s %12s\n", r.Group, r.Variant, fmtDur(r.PerOp))
	}
	return b.String()
}
