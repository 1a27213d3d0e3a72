package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"rpai/internal/tpch"
)

// Tiny configurations keep the harness tests fast; the real scales, and the
// shape checks at their bounds, run via cmd/rpaibench (`make test` runs
// `rpaibench -exp all -quick`).

func tinyFig7() Fig7Config { return Fig7Config{FinanceEvents: 200, TPCHScale: 0.02, Seed: 1} }

func TestFig7ProducesAllQueriesAndAgreement(t *testing.T) {
	rows := Fig7(tinyFig7())
	want := []string{"q17", "q17*", "q18", "mst", "psp", "vwap", "sq1", "sq2", "nq1", "nq2"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Query != want[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Query, want[i])
		}
		if d := disagreement(r.Outcomes); d != "" {
			t.Fatalf("%s: %s disagree", r.Query, d)
		}
		if r.Toaster <= 0 || r.RPAI <= 0 {
			t.Fatalf("%s: non-positive timing", r.Query)
		}
		if (r.Engine > 0) != HasSQL(r.Query) {
			t.Fatalf("%s: engine time %v, SQL form %v", r.Query, r.Engine, HasSQL(r.Query))
		}
	}
}

func TestFig8RespectsCaps(t *testing.T) {
	cfg := Fig8Config{Sizes: []int{50, 400}, NaiveCap: 100, NQ2NaiveCap: 60, ToasterCap: 400, Seed: 1}
	series := Fig8(cfg)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(cfg.Sizes)*len(withEngine(s.Query, SysNaive, SysToaster, SysRPAI)) {
			t.Fatalf("%s: points = %d", s.Query, len(s.Points))
		}
		for _, p := range s.Points {
			naiveLimit := cfg.NaiveCap
			if s.Query == "nq2" {
				naiveLimit = cfg.NQ2NaiveCap
			}
			wantSkip := p.System == SysNaive && p.Size > naiveLimit
			if p.Skipped != wantSkip {
				t.Fatalf("%s %s size %d: skipped=%v want %v", s.Query, p.System, p.Size, p.Skipped, wantSkip)
			}
			if !p.Skipped && p.Elapsed <= 0 {
				t.Fatalf("%s %s size %d: non-positive elapsed", s.Query, p.System, p.Size)
			}
		}
	}
}

func TestFig8dCoversGrid(t *testing.T) {
	cfg := Fig8dConfig{Scales: []float64{0.01, 0.02}, Seed: 1}
	points := Fig8d(cfg)
	if len(points) != len(cfg.Scales)*2*2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Elapsed <= 0 {
			t.Fatalf("non-positive elapsed at sf=%g skewed=%v sys=%s", p.Scale, p.Skewed, p.System)
		}
	}
}

func TestFig9SamplesAndCaps(t *testing.T) {
	cfg := Fig9Config{Events: 300, SampleEvery: 100, NaiveCap: 100, NQ2NaiveCap: 100, Seed: 1}
	curves := Fig9(cfg)
	if len(curves) != 11 { // 3 queries x 3 systems, and the engine on vwap and nq2
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Samples) == 0 {
			t.Fatalf("%s/%s: no samples", c.Query, c.System)
		}
		last := c.Samples[len(c.Samples)-1]
		if c.System == SysNaive {
			if last.Processed > 100 {
				t.Fatalf("%s naive processed %d beyond cap", c.Query, last.Processed)
			}
		} else if last.Processed != cfg.Events {
			t.Fatalf("%s/%s processed %d, want %d", c.Query, c.System, last.Processed, cfg.Events)
		}
		var prev float64
		for _, smp := range c.Samples {
			if smp.CumSeconds < prev {
				t.Fatalf("%s/%s: cumulative time decreased", c.Query, c.System)
			}
			prev = smp.CumSeconds
			if smp.HeapMB <= 0 {
				t.Fatalf("%s/%s: non-positive heap sample", c.Query, c.System)
			}
		}
	}
}

func TestTable1StaticShape(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Queries != "MST, VWAP, NQ1" || rows[0].RPAI != "O(log n)" {
		t.Fatalf("unexpected first row: %+v", rows[0])
	}
}

func TestMeasureScalingShape(t *testing.T) {
	rows := MeasureScaling(ScalingConfig{SmallN: 100, LargeN: 300, Seed: 1})
	if len(rows) != 14 { // 7 queries x 2 systems
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SmallPerOp <= 0 || r.LargePerOp <= 0 {
			t.Fatalf("%s/%s: non-positive per-op time", r.Query, r.System)
		}
	}
}

func TestRunnersProduceConsistentResults(t *testing.T) {
	events := FinanceTrace(300, false, 3)
	var outs []Outcome
	for _, sys := range []System{SysNaive, SysToaster, SysRPAI, SysEngine} {
		outs = append(outs, NewFinanceRunner("vwap", sys, events).Run())
	}
	if d := disagreement(outs); d != "" || outs[0].Final == 0 {
		t.Fatalf("vwap: %s disagree: %+v", d, outs)
	}

	d := tpch.Generate(tpch.DefaultConfig(0.02, true))
	q17 := []Outcome{NewQ17Runner(SysToaster, d).Run(), NewQ17Runner(SysRPAI, d).Run()}
	if d := disagreement(q17); d != "" {
		t.Fatalf("q17: %s disagree: %+v", d, q17)
	}
}

func TestFormatters(t *testing.T) {
	f7 := FormatFig7(Fig7(tinyFig7()))
	for _, q := range []string{"q17*", "vwap", "speedup"} {
		if !strings.Contains(f7, q) {
			t.Fatalf("FormatFig7 missing %q:\n%s", q, f7)
		}
	}
	f8 := FormatFig8(Fig8(Fig8Config{Sizes: []int{50}, NaiveCap: 50, NQ2NaiveCap: 50, ToasterCap: 50, Seed: 1}))
	if !strings.Contains(f8, "8a MST") || !strings.Contains(f8, "8c NQ2") {
		t.Fatalf("FormatFig8 output:\n%s", f8)
	}
	f8d := FormatFig8d(Fig8d(Fig8dConfig{Scales: []float64{0.01}, Seed: 1}))
	if !strings.Contains(f8d, "toaster*") {
		t.Fatalf("FormatFig8d output:\n%s", f8d)
	}
	f9 := FormatFig9(Fig9(Fig9Config{Events: 120, SampleEvery: 60, NaiveCap: 60, NQ2NaiveCap: 60, Seed: 1}))
	if !strings.Contains(f9, "9b VWAP") {
		t.Fatalf("FormatFig9 output:\n%s", f9)
	}
	t1 := FormatTable1(Table1())
	if !strings.Contains(t1, "O(log n)") {
		t.Fatalf("FormatTable1 output:\n%s", t1)
	}
	sc := FormatScaling(MeasureScaling(ScalingConfig{SmallN: 50, LargeN: 100, Seed: 1}))
	if !strings.Contains(sc, "growth") {
		t.Fatalf("FormatScaling output:\n%s", sc)
	}
}

func TestEQ1Runner(t *testing.T) {
	trace := EQ1Trace(400, 1)
	var outs []Outcome
	for _, sys := range []System{SysNaive, SysToaster, SysRPAI, SysEngine} {
		outs = append(outs, NewEQ1Runner(sys, trace).Run())
	}
	if d := disagreement(outs); d != "" {
		t.Fatalf("eq1: %s disagree: %+v", d, outs)
	}
}

func TestCadenceExperiment(t *testing.T) {
	cfg := CadenceConfig{Query: "vwap", Events: 400, BatchSizes: []int{1, 100}, Seed: 1}
	points := Cadence(cfg)
	if len(points) != 6 { // toaster, rpai, engine x 2 cadences
		t.Fatalf("points = %d", len(points))
	}
	byKey := map[string]float64{}
	for _, p := range points {
		if p.Elapsed <= 0 {
			t.Fatalf("non-positive elapsed: %+v", p)
		}
		byKey[string(p.System)+"/"+itoa(p.Batch)] = p.Elapsed.Seconds()
	}
	// Batching must help the toaster executor (its cost is the result scan).
	if byKey["toaster/100"] >= byKey["toaster/1"] {
		t.Fatalf("batching did not reduce toaster time: %v vs %v", byKey["toaster/100"], byKey["toaster/1"])
	}
	out := FormatCadence(cfg.Query, points)
	if !strings.Contains(out, "batch") {
		t.Fatalf("FormatCadence output:\n%s", out)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func TestLatencyExperiment(t *testing.T) {
	cfg := LatencyConfig{Query: "vwap", Events: 400, Seed: 1, WarmUp: 50}
	rows := Latency(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.P50 <= 0 || r.P95 < r.P50 || r.P99 < r.P95 || r.Max < r.P99 {
			t.Fatalf("non-monotone distribution: %+v", r)
		}
	}
	out := FormatLatency(cfg.Query, rows)
	if !strings.Contains(out, "p99") {
		t.Fatalf("FormatLatency output:\n%s", out)
	}
}

func TestPercentileEdges(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
	s := []time.Duration{1, 2, 3, 4}
	if percentile(s, 0) != 1 || percentile(s, 1) != 4 {
		t.Fatalf("edge percentiles: %v %v", percentile(s, 0), percentile(s, 1))
	}
}

func TestCSVEmitters(t *testing.T) {
	checks := []struct {
		name   string
		out    string
		header string
	}{
		{"fig7", Fig7CSV(Fig7(tinyFig7())), "query,toaster_s"},
		{"fig8", Fig8CSV(Fig8(Fig8Config{Sizes: []int{50}, NaiveCap: 50, NQ2NaiveCap: 50, ToasterCap: 50, Seed: 1})), "query,size,system"},
		{"fig8d", Fig8dCSV(Fig8d(Fig8dConfig{Scales: []float64{0.01}, Seed: 1})), "scale,skewed"},
		{"fig9", Fig9CSV(Fig9(Fig9Config{Events: 120, SampleEvery: 60, NaiveCap: 60, NQ2NaiveCap: 60, Seed: 1})), "query,system,processed"},
		{"scaling", ScalingCSV(MeasureScaling(ScalingConfig{SmallN: 50, LargeN: 100, Seed: 1})), "query,system,small_n"},
		{"cadence", CadenceCSV("vwap", Cadence(CadenceConfig{Query: "vwap", Events: 100, BatchSizes: []int{1}, Seed: 1})), "query,system,batch"},
		{"latency", LatencyCSV("vwap", Latency(LatencyConfig{Query: "vwap", Events: 100, Seed: 1, WarmUp: 10})), "query,system,p50_s"},
	}
	for _, c := range checks {
		lines := strings.Split(strings.TrimSpace(c.out), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: no data rows:\n%s", c.name, c.out)
			continue
		}
		if !strings.HasPrefix(lines[0], c.header) {
			t.Errorf("%s: header = %q", c.name, lines[0])
		}
		cols := strings.Count(lines[0], ",")
		for i, l := range lines[1:] {
			if strings.Count(l, ",") != cols {
				t.Errorf("%s row %d: column count mismatch: %q", c.name, i, l)
			}
		}
	}
}
