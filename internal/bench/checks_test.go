package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// failing lists the claims of the checks that fail.
func failing(cs []Check) []string {
	var out []string
	for _, c := range cs {
		if !c.Pass {
			out = append(out, c.Claim)
		}
	}
	return out
}

// passingFig7 is a Figure 7 row set every check accepts: RPAI 1000x ahead
// except at Q17's and Q18's parity, and every system agreeing, naive and
// the engine on the prefix too.
func passingFig7() []Fig7Row {
	var rows []Fig7Row
	for _, q := range []string{"q17", "q17*", "q18", "mst", "psp", "vwap", "sq1", "sq2", "nq1", "nq2"} {
		s := 1000.0
		if q == "q17" || q == "q18" {
			s = 1
		}
		rows = append(rows, Fig7Row{Query: q, Toaster: time.Duration(s) * time.Millisecond, RPAI: time.Millisecond,
			Speedup: s, Outcomes: []Outcome{
				{System: SysToaster, Events: 10, Digest: 1}, {System: SysRPAI, Events: 10, Digest: 1},
				{System: SysNaive, Events: 5, Digest: 2}, {System: SysEngine, Events: 5, Digest: 2}}})
	}
	return rows
}

// passingFig8 is a Figure 8 sweep every check accepts: at n events rpai
// takes n µs, toaster n²/10 and naive ten times toaster, so the gap widens
// tenfold from 100 to 1000 events.
func passingFig8() []Fig8Series {
	var out []Fig8Series
	for _, q := range Fig8Queries() {
		s := Fig8Series{Query: q}
		for _, n := range []int{100, 1000} {
			us := time.Duration(n) * time.Microsecond
			for _, p := range []struct {
				sys System
				d   time.Duration
			}{{SysNaive, us * time.Duration(n)}, {SysToaster, us * time.Duration(n) / 10}, {SysRPAI, us}} {
				s.Points = append(s.Points, Fig8Point{Size: n, Outcome: Outcome{System: p.sys, Events: n, Elapsed: p.d}})
			}
		}
		out = append(out, s)
	}
	return out
}

// TestChecksFailOnDoctoredRows feeds Figure 7 and 8 checks rows that pass,
// then rows doctored to break one claim each, and requires exactly that
// claim's check to fail.
func TestChecksFailOnDoctoredRows(t *testing.T) {
	row := func(rows []Fig7Row, q string) *Fig7Row {
		i := slices.IndexFunc(rows, func(r Fig7Row) bool { return r.Query == q })
		return &rows[i]
	}
	fig7 := func(doctor func([]Fig7Row)) func() []Check {
		return func() []Check {
			rows := passingFig7()
			doctor(rows)
			return Fig7Checks(rows)
		}
	}
	fig8 := func(doctor func([]Fig8Series)) func() []Check {
		return func() []Check {
			series := passingFig8()
			doctor(series)
			return Fig8Checks(series)
		}
	}
	if f := failing(Fig7Checks(passingFig7())); len(f) > 0 {
		t.Fatalf("passing fig7 rows fail %v", f)
	}
	if f := failing(Fig8Checks(passingFig8())); len(f) > 0 {
		t.Fatalf("passing fig8 rows fail %v", f)
	}
	cases := []struct {
		claim  string
		checks func() []Check
	}{
		{"fig7: vwap results agree", fig7(func(rows []Fig7Row) { row(rows, "vwap").Outcomes[1].Digest++ })},
		{"fig7: nq1 results agree", fig7(func(rows []Fig7Row) { row(rows, "nq1").Outcomes[3].Digest++ })},
		{"fig7: rpai beats toaster on vwap", fig7(func(rows []Fig7Row) { row(rows, "vwap").Speedup = 2 })},
		{"fig7: q18 toaster/rpai near parity", fig7(func(rows []Fig7Row) { row(rows, "q18").Speedup = 3 })},
		{"fig8: sq1 @1000 toaster/rpai", fig8(func(series []Fig8Series) {
			ps := series[1].Points // sq1: naive, toaster, rpai at 100, then at 1000
			ps[4].Elapsed, ps[5].Elapsed = ps[5].Elapsed, ps[4].Elapsed
		})},
		{"fig8: nq2 @1000 naive/toaster", fig8(func(series []Fig8Series) { series[2].Points[3].Elapsed = 0 })},
		{"fig8: mst @1000 results agree", fig8(func(series []Fig8Series) { series[0].Points[5].Digest++ })},
	}
	for _, c := range cases {
		if f := failing(c.checks()); !slices.Equal(f, []string{c.claim}) {
			t.Errorf("doctored %q: failing checks %v", c.claim, f)
		}
	}
}

// TestTinyRowsAgree runs every experiment at a tiny configuration and
// requires each to produce its checks and every agreement check to pass.
// The timing bounds are set for -quick's sizes, where rpaibench evaluates
// them; tiny traces shrink every gap (at 50 events naive beats toaster on
// MST), so the timing checks are not asserted here.
func TestTinyRowsAgree(t *testing.T) {
	sets := map[string][]Check{
		"table1":   Table1Checks(MeasureScaling(ScalingConfig{SmallN: 100, LargeN: 300, Seed: 1})),
		"fig7":     Fig7Checks(Fig7(tinyFig7())),
		"fig8":     Fig8Checks(Fig8(Fig8Config{Sizes: []int{50, 400}, NaiveCap: 100, NQ2NaiveCap: 60, ToasterCap: 400, Seed: 1})),
		"fig8d":    Fig8dChecks(Fig8d(Fig8dConfig{Scales: []float64{0.01, 0.02}, Seed: 1})),
		"fig9":     Fig9Checks(Fig9(Fig9Config{Events: 300, SampleEvery: 100, NaiveCap: 100, NQ2NaiveCap: 100, Seed: 1})),
		"cadence":  CadenceChecks(Cadence(CadenceConfig{Query: "vwap", Events: 400, BatchSizes: []int{1, 100}, Seed: 1})),
		"latency":  LatencyChecks(Latency(LatencyConfig{Query: "vwap", Events: 400, Seed: 1, WarmUp: 50})),
		"ablation": AblationChecks(Ablation(AblationConfig{Keys: 500, Ops: 50, Events: 100, Seed: 1})),
	}
	for exp, cs := range sets {
		agreements := 0
		for _, c := range cs {
			if !strings.HasSuffix(c.Claim, "results agree") {
				continue
			}
			agreements++
			if !c.Pass {
				t.Errorf("%s: %s", exp, c)
			}
		}
		if agreements == 0 {
			t.Errorf("%s: no agreement check among %d checks", exp, len(cs))
		}
	}
}
