package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rpai/internal/query"
)

// vwapAt is vwapSpec with the threshold scale replaced.
func vwapAt(c float64) *query.Query {
	q := vwapSpec()
	q.Preds[0].Left.Scale = c
	return q
}

// TestFamilyKey pins threshold-family membership: queries that differ only in
// their threshold constant share one StateKey, and the constant becomes the
// probe lane's Const.
func TestFamilyKey(t *testing.T) {
	kA, _, spA, okA := StateKey(vwapAt(0.75))
	kB, _, spB, okB := StateKey(vwapAt(0.9))
	if !okA || !okB {
		t.Fatalf("vwap variants should be family-eligible")
	}
	if kA != kB {
		t.Errorf("constant variants should share a state key:\n a %s\n b %s", kA, kB)
	}
	if spA.Const != 0.75 || spB.Const != 0.9 {
		t.Errorf("constants: got %v, %v", spA.Const, spB.Const)
	}

	// Flipped spelling of the same predicate converges to the same key: the
	// key is built from the orientation-normalized plan.
	flipped := vwapAt(0.75)
	p := flipped.Preds[0]
	flipped.Preds[0] = query.Predicate{Left: p.Right, Op: p.Op.Flip(), Right: p.Left}
	kF, _, spF, okF := StateKey(flipped)
	if !okF || kF != kA || spF.Const != 0.75 {
		t.Errorf("flipped spelling: ok=%v key match=%v const=%v", okF, kF == kA, spF.Const)
	}

	// A filter constant inside the threshold subquery shapes maintained
	// state, so it must NOT be masked: different filter constants are
	// different families.
	withFilter := func(v float64) *query.Query {
		q := vwapAt(0.75)
		q.Preds[0].Left.Sub.Filters = []query.FilterPred{{Inner: query.Col("volume"), Op: query.Gt, Value: v}}
		return q
	}
	k1, _, _, ok1 := StateKey(withFilter(1))
	k2, _, _, ok2 := StateKey(withFilter(2))
	if !ok1 || !ok2 {
		t.Skipf("filtered threshold subquery not family-eligible (strategy fell back); acceptable")
	}
	if k1 == k2 {
		t.Errorf("filter constants must not be masked: %s", k1)
	}

	// Ineligible shapes.
	for name, q := range map[string]*query.Query{
		"grouped":  groupedVWAPSpec(),
		"nested":   nq1Spec(),
		"two-pred": twoPredSpec(),
	} {
		if k, _, _, ok := StateKey(q); ok {
			t.Errorf("%s should not be family-eligible (key %s)", name, k)
		}
	}
}

// TestResultFanBitIdentity feeds one family executor and K dedicated
// executors the same event stream and checks that every threshold lane the
// family answers through ResultProbe is bit-identical to its dedicated
// Result, at every verification step, for the relation-state executor (Le
// and Lt-threshold orientations, positive and negative subquery bases) and
// the PAI equality executor.
func TestResultFanBitIdentity(t *testing.T) {
	consts := []float64{0.3, 0.75, 0.9, 1.25}
	sort.Float64s(consts)
	specs := make([]ProbeSpec, len(consts))
	for i, c := range consts {
		specs[i] = ProbeSpec{Kind: query.Sum, Const: c}
	}

	type mk func(c float64) Executor
	// check builds the family from build and the dedicated executors from
	// solo (build again when nil).
	check := func(t *testing.T, build, solo mk, events []Event) {
		if solo == nil {
			solo = build
		}
		family := build(consts[len(consts)/2])
		fan, ok := family.(RowExecutor)
		if !ok {
			t.Fatalf("executor %T does not implement RowExecutor", family)
		}
		dedicated := make([]Executor, len(consts))
		for i, c := range consts {
			dedicated[i] = solo(c)
		}
		dst := make([]float64, len(consts))
		verify := func(step int) {
			fan.ResultProbe(specs, dst, nil)
			for i := range consts {
				want := dedicated[i].Result()
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("step %d lane %d (c=%v): fan %v solo %v", step, i, consts[i], dst[i], want)
				}
			}
		}
		verify(-1)
		for i, e := range events {
			family.Apply(e)
			for _, s := range dedicated {
				s.Apply(e)
			}
			if i%7 == 0 || i == len(events)-1 {
				verify(i)
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	mkEvents := func(n int, tuple func() query.Tuple) []Event {
		var live []query.Tuple
		ev := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				ev = append(ev, Delete(live[j]))
				live = append(live[:j], live[j+1:]...)
			} else {
				tu := tuple()
				live = append(live, tu)
				ev = append(ev, Insert(tu))
			}
		}
		return ev
	}
	relStateAt := func(t *testing.T) mk {
		return func(c float64) Executor {
			ex, err := New(vwapAt(c))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ex.(*relStateExec); !ok {
				t.Fatalf("vwap built %T, want relStateExec", ex)
			}
			return ex
		}
	}

	t.Run("relstate-vwap", func(t *testing.T) {
		check(t, relStateAt(t), nil, mkEvents(160, func() query.Tuple {
			return query.Tuple{"price": float64(rng.Intn(50)) + 1, "volume": float64(rng.Intn(9)) + 1}
		}))
	})

	t.Run("relstate-vwap-pointer-tree", func(t *testing.T) {
		// Same family against dedicated two-pointer-tree references: the
		// batched descent of the two-lane arena tree must be bit-identical to
		// single probes of the pointer representation.
		check(t, relStateAt(t), func(c float64) Executor { return newTwoTreeRef(t, vwapAt(c)) },
			mkEvents(160, func() query.Tuple {
				return query.Tuple{"price": float64(rng.Intn(50)) + 1, "volume": float64(rng.Intn(9)) + 1}
			}))
	})

	t.Run("relstate-negative-base", func(t *testing.T) {
		// Threshold subquery sums a column that can go negative, exercising
		// the reversed probe order of the batched descent.
		build := func(c float64) Executor {
			q := &query.Query{
				Agg: query.Mul(query.Col("price"), query.Col("volume")),
				Preds: []query.Predicate{{
					Left: query.ValSub(c, &query.Subquery{Kind: query.Sum, Of: query.Col("bias")}),
					Op:   query.Gt,
					Right: query.ValSub(1, &query.Subquery{
						Kind:  query.Sum,
						Of:    query.Col("volume"),
						Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
					}),
				}},
			}
			ex, err := New(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ex.(*relStateExec); !ok {
				t.Fatalf("built %T, want relStateExec", ex)
			}
			return ex
		}
		check(t, build, nil, mkEvents(160, func() query.Tuple {
			return query.Tuple{
				"price":  float64(rng.Intn(50)) + 1,
				"volume": float64(rng.Intn(9)) + 1,
				"bias":   float64(rng.Intn(21)) - 14, // sums drift negative
			}
		}))
	})

	t.Run("pai-eq", func(t *testing.T) {
		check(t, func(c float64) Executor {
			q := eq1Spec()
			q.Preds[0].Left.Scale = c
			ex, err := New(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ex.(*AggIndexExec); !ok {
				t.Fatalf("eq1 built %T, want AggIndexExec", ex)
			}
			return ex
		}, nil, mkEvents(120, func() query.Tuple {
			return query.Tuple{"a": float64(rng.Intn(6)) + 1, "b": float64(rng.Intn(9)) + 1}
		}))
	})
}
