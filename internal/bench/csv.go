package bench

import (
	"fmt"
	"strings"
)

// CSV emitters for every experiment, so the figures can be re-plotted with
// external tools (`rpaibench -format csv`). All durations are emitted in
// seconds.

// Fig7CSV renders the Figure 7 rows as CSV.
func Fig7CSV(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("query,toaster_s,rpai_s,engine_s,speedup,agree\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.6f,%.6f,%.6f,%.3f,%v\n", r.Query, r.Toaster.Seconds(),
			r.RPAI.Seconds(), r.Engine.Seconds(), r.Speedup, disagreement(r.Outcomes) == "")
	}
	return b.String()
}

// Fig8CSV renders the Figure 8a-8c sweeps as CSV.
func Fig8CSV(series []Fig8Series) string {
	var b strings.Builder
	b.WriteString("query,size,system,seconds,skipped\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%d,%s,%.6f,%v\n", s.Query, p.Size, p.System, p.Elapsed.Seconds(), p.Skipped)
		}
	}
	return b.String()
}

// Fig8dCSV renders the Q17 scale sweep as CSV.
func Fig8dCSV(points []Fig8dPoint) string {
	var b strings.Builder
	b.WriteString("scale,skewed,system,seconds\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%g,%v,%s,%.6f\n", p.Scale, p.Skewed, p.System, p.Elapsed.Seconds())
	}
	return b.String()
}

// Fig9CSV renders the sampled curves as CSV.
func Fig9CSV(curves []Fig9Curve) string {
	var b strings.Builder
	b.WriteString("query,system,processed,heap_mib,rate_rec_s,cum_s\n")
	for _, c := range curves {
		for _, s := range c.Samples {
			fmt.Fprintf(&b, "%s,%s,%d,%.2f,%.0f,%.6f\n",
				c.Query, c.System, s.Processed, s.HeapMB, s.Rate, s.CumSeconds)
		}
	}
	return b.String()
}

// ScalingCSV renders the measured Table 1 validation as CSV.
func ScalingCSV(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("query,system,small_n,large_n,small_per_op_s,large_per_op_s,growth\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%.9f,%.9f,%.3f\n",
			r.Query, r.System, r.SmallN, r.LargeN,
			r.SmallPerOp.Seconds(), r.LargePerOp.Seconds(), r.GrowthFactor)
	}
	return b.String()
}

// CadenceCSV renders the refresh-cadence experiment as CSV.
func CadenceCSV(query string, points []CadencePoint) string {
	var b strings.Builder
	b.WriteString("query,system,batch,seconds\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%s,%d,%.6f\n", query, p.System, p.Batch, p.Elapsed.Seconds())
	}
	return b.String()
}

// LatencyCSV renders the latency distributions as CSV.
func LatencyCSV(query string, rows []LatencyRow) string {
	var b strings.Builder
	b.WriteString("query,system,p50_s,p95_s,p99_s,max_s\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.9f,%.9f,%.9f,%.9f\n",
			query, r.System, r.P50.Seconds(), r.P95.Seconds(), r.P99.Seconds(), r.Max.Seconds())
	}
	return b.String()
}

// AblationCSV renders the section 3 ablations as CSV.
func AblationCSV(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("group,variant,per_op_s\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.9f\n", r.Group, r.Variant, r.PerOp.Seconds())
	}
	return b.String()
}
