package engine

import (
	"math"
	"math/rand"
	"testing"

	"rpai/internal/query"
	"rpai/internal/sqlparse"
)

// variantAt is vwapAt(c) with the outer aggregate flipped to kind. COUNT(*)
// carries the constant-1 aggregate term, per query.Validate.
func variantAt(kind query.AggKind, c float64) *query.Query {
	q := vwapAt(c)
	q.Outer = kind
	if kind == query.Count {
		q.Agg = query.Const(1)
	}
	return q
}

func TestStateKeyVariants(t *testing.T) {
	kSum, bSum, spSum, okSum := StateKey(variantAt(query.Sum, 0.75))
	kCnt, bCnt, spCnt, okCnt := StateKey(variantAt(query.Count, 0.9))
	kAvg, bAvg, spAvg, okAvg := StateKey(variantAt(query.Avg, 0.75))
	if !okSum || !okCnt || !okAvg {
		t.Fatalf("vwap variants should be state-eligible: sum=%v count=%v avg=%v", okSum, okCnt, okAvg)
	}

	// Maintained state never depends on the outer aggregate: SUM and AVG of
	// the same term share a key outright. COUNT(*) carries a different term
	// (the constant 1), so its key differs — it attaches through the
	// agg-masked baseKey instead, which all three share.
	if kAvg != kSum {
		t.Errorf("AVG variant should share the SUM state key:\n sum %s\n avg %s", kSum, kAvg)
	}
	if kCnt == kSum {
		t.Errorf("COUNT(*) carries a different term; keys should differ: %s", kCnt)
	}
	if bCnt == "" || bCnt != bSum || bCnt != bAvg {
		t.Errorf("agg-masked base keys should match and be non-empty:\n sum %q\n count %q\n avg %q", bSum, bCnt, bAvg)
	}

	for _, tc := range []struct {
		spec ProbeSpec
		kind query.AggKind
		c    float64
		str  string
	}{
		{spSum, query.Sum, 0.75, "sum@0.75"},
		{spCnt, query.Count, 0.9, "count@0.9"},
		{spAvg, query.Avg, 0.75, "avg@0.75"},
	} {
		if tc.spec.Kind != tc.kind || tc.spec.Const != tc.c || tc.spec.Residual {
			t.Errorf("spec %s: got kind=%v const=%v residual=%v", tc.str, tc.spec.Kind, tc.spec.Const, tc.spec.Residual)
		}
		if got := tc.spec.String(); got != tc.str {
			t.Errorf("spec rendering: got %q want %q", got, tc.str)
		}
	}

	// The PAI/aggindex shape maintains no count side: AVG cannot ride it and
	// COUNT(*) matches only through the full key (empty baseKey).
	eqAvg := eq1Spec()
	eqAvg.Outer = query.Avg
	if _, _, _, ok := StateKey(eqAvg); ok {
		t.Errorf("AVG over the aggindex shape should be state-ineligible")
	}
	if _, b, _, ok := StateKey(eq1Spec()); !ok || b != "" {
		t.Errorf("aggindex shape: ok=%v baseKey=%q, want eligible with empty baseKey", ok, b)
	}

	// Shapes with no family key have no state key either.
	if _, _, _, ok := StateKey(twoPredSpec()); ok {
		t.Errorf("two-predicate query should be state-ineligible")
	}
}

func TestSplitResidual(t *testing.T) {
	const filtered = `
		SELECT SUM(b.price * b.volume) FROM bids b
		WHERE b.sym > 2
		  AND 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
		    < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	q := sqlparse.MustParse(filtered)
	base, spec, ok := SplitResidual(q, []string{"sym"})
	if !ok {
		t.Fatalf("bare partition-column conjunct should split off")
	}
	if len(q.Preds) != 2 {
		t.Errorf("SplitResidual must not modify its argument; q has %d preds", len(q.Preds))
	}
	if len(base.Preds) != 1 {
		t.Fatalf("base should keep the single shareable conjunct, has %d", len(base.Preds))
	}
	if _, _, _, baseOK := StateKey(base); !baseOK {
		t.Errorf("split base should be state-eligible")
	}
	if !spec.Residual || spec.ResidualCol != "sym" || spec.ResidualOp != query.Gt || spec.ResidualVal != 2 {
		t.Errorf("residual gate: got %+v", spec)
	}
	if got := spec.String(); got != "sum@0.75 | sym > 2" {
		t.Errorf("residual spec rendering: got %q", got)
	}

	// The flipped spelling `2 < b.sym` normalizes to the same column-first
	// gate.
	fq := sqlparse.MustParse(`
		SELECT SUM(b.price * b.volume) FROM bids b
		WHERE 2 < b.sym
		  AND 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
		    < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`)
	if _, fs, fok := SplitResidual(fq, []string{"sym"}); !fok || fs != spec {
		t.Errorf("flipped spelling: ok=%v spec=%+v want %+v", fok, fs, spec)
	}

	// A residual over a non-partition column cannot gate per partition.
	if _, _, ok := SplitResidual(q, []string{"broker"}); ok {
		t.Errorf("conjunct over a non-partition column must not split")
	}

	// Gate evaluation: aligned with partCols, missing column reads gated-off,
	// and a residual-free spec is always on.
	if !spec.GateOn([]string{"sym"}, []float64{3}) || spec.GateOn([]string{"sym"}, []float64{2}) {
		t.Errorf("sym > 2 gate misevaluated")
	}
	if spec.GateOn([]string{"broker"}, []float64{5}) {
		t.Errorf("residual column missing from the partitioning should gate off")
	}
	if !(ProbeSpec{Kind: query.Sum, Const: 0.75}).GateOn([]string{"sym"}, []float64{0}) {
		t.Errorf("residual-free spec should always be on")
	}
}

// TestResultProbeBitIdentity feeds one shared relation-state executor and a
// dedicated executor per aggregate variant the same event stream, and checks
// every probe lane — finished through FinishProbe — is bit-identical to its
// dedicated Result at every verification step. Lanes mix outer aggregates
// AND threshold constants, so the per-side batched descents are exercised
// with partially overlapping constant lists.
func TestResultProbeBitIdentity(t *testing.T) {
	specs := []ProbeSpec{
		{Kind: query.Sum, Const: 0.75},
		{Kind: query.Sum, Const: 0.3},
		{Kind: query.Count, Const: 0.75},
		{Kind: query.Count, Const: 0.9},
		{Kind: query.Avg, Const: 0.75},
		{Kind: query.Avg, Const: 0.3},
	}
	shared, err := New(vwapAt(0.75))
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := shared.(RowExecutor)
	if !ok {
		t.Fatalf("executor %T does not implement RowExecutor", shared)
	}
	solo := make([]Executor, len(specs))
	for i, s := range specs {
		if solo[i], err = New(variantAt(s.Kind, s.Const)); err != nil {
			t.Fatal(err)
		}
	}

	vals := make([]float64, len(specs))
	cnts := make([]float64, len(specs))
	verify := func(step int) {
		pe.ResultProbe(specs, vals, cnts)
		for i, s := range specs {
			got := FinishProbe(s, vals[i], cnts[i])
			want := solo[i].Result()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d lane %s: probe %v dedicated %v", step, s, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(23))
	var live []query.Tuple
	verify(-1)
	for i := 0; i < 200; i++ {
		var e Event
		if len(live) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(live))
			e = Delete(live[j])
			live = append(live[:j], live[j+1:]...)
		} else {
			tu := query.Tuple{"price": float64(rng.Intn(50)) + 1, "volume": float64(rng.Intn(9)) + 1}
			live = append(live, tu)
			e = Insert(tu)
		}
		shared.Apply(e)
		for _, s := range solo {
			s.Apply(e)
		}
		if i%7 == 0 || i == 199 {
			verify(i)
		}
	}
}

// TestSpecLaneIsResult pins the contract every served read rests on: for
// each executor Prepare builds — relation state (SUM, COUNT, AVG, a literal
// column threshold), the PAI map, the general algorithm, grouped or not —
// a one-lane ResultProbe of the plan's own Spec finishes to Result, bit for
// bit, after every event.
func TestSpecLaneIsResult(t *testing.T) {
	parse := func(sql string) *query.Query {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		name     string
		q        *query.Query
		strategy string
		events   []Event
	}{
		{"vwap", vwapSpec(), "relstate", priceVolumeEvents(3, 300, 0.25)},
		{"vwap-inexact", vwapSpec(), "relstate", inexactTrace(5, 300)},
		{"count", countSpec(), "relstate", priceVolumeEvents(4, 300, 0.25)},
		{"avg", avgSpec(), "relstate", priceVolumeEvents(6, 300, 0.25)},
		{"column-literal", parse(`SELECT SUM(b.price * b.volume) FROM bids b WHERE b.price < 20`),
			"relstate", priceVolumeEvents(7, 300, 0.25)},
		{"eq1", eq1Spec(), "aggindex", priceVolumeEvents(8, 300, 0.25)},
		{"sq2", sq2Spec(), "general", priceVolumeEvents(9, 200, 0.25)},
		{"two-pred", twoPredSpec(), "general", priceVolumeEvents(10, 200, 0.25)},
		{"grouped", parse(`SELECT SUM(b.volume) FROM bids b
			WHERE b.volume > 1 * (SELECT AVG(b1.volume) FROM bids b1) GROUP BY b.a`),
			"general", priceVolumeEvents(11, 200, 0.25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := prepareOwn(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			ex := p.New()
			if ex.Strategy() != tc.strategy {
				t.Fatalf("strategy %s, want %s", ex.Strategy(), tc.strategy)
			}
			spec := p.Spec()
			if spec.Kind != tc.q.Outer || spec.Residual {
				t.Fatalf("spec %s for outer %s", spec, tc.q.Outer)
			}
			vals, cnts := make([]float64, 1), make([]float64, 1)
			for i, e := range tc.events {
				ex.Apply(e)
				ex.ResultProbe([]ProbeSpec{spec}, vals, cnts)
				got, want := FinishProbe(spec, vals[0], cnts[0]), ex.Result()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("event %d: lane %s = %v, Result %v", i, spec, got, want)
				}
			}
		})
	}
}
