package queries

import (
	"rpai/internal/aggindex"
	"rpai/internal/stream"
)

// EQ1 (paper Example 2.1): a nested aggregate with only equality predicates —
// the sum over tuples whose group accounts for exactly half the total:
//
//	SELECT Sum(r.A * r.B) FROM R r
//	WHERE 0.5 * (SELECT Sum(r1.B) FROM R r1)
//	    = (SELECT Sum(r2.B) FROM R r2 WHERE r2.A = r.A)
//
// Re-evaluation is O(n^2) per event (Figure 1a), DBToaster O(n) (Figure 1b),
// and the PAI-map strategy O(1) (Figure 1c).

// RABExecutor incrementally maintains EQ1 over R(A,B) events.
type RABExecutor interface {
	Name() string
	Strategy() Strategy
	Apply(e stream.RABEvent)
	Result() float64
}

// NewEQ1 constructs the EQ1 executor for a strategy.
func NewEQ1(s Strategy) RABExecutor {
	switch s {
	case Naive:
		return &eq1Naive{}
	case Toaster:
		return newEQ1Toaster()
	case RPAI:
		return newEQ1RPAI()
	}
	panic("queries: unknown strategy " + string(s))
}

// eq1Naive re-evaluates from scratch (Figure 1a): O(n^2) per event.
type eq1Naive struct {
	live []stream.RAB
}

func (q *eq1Naive) Name() string       { return "eq1" }
func (q *eq1Naive) Strategy() Strategy { return Naive }

func (q *eq1Naive) Apply(e stream.RABEvent) {
	switch e.Op {
	case stream.Insert:
		q.live = append(q.live, e.Rec)
	case stream.Delete:
		for i := range q.live {
			if q.live[i] == e.Rec {
				q.live[i] = q.live[len(q.live)-1]
				q.live = q.live[:len(q.live)-1]
				return
			}
		}
	}
}

func (q *eq1Naive) Result() float64 {
	var lhs float64
	for _, r1 := range q.live {
		lhs += r1.B
	}
	lhs *= 0.5
	var res float64
	for _, r := range q.live {
		var rhs float64
		for _, r2 := range q.live {
			if r2.A == r.A {
				rhs += r2.B
			}
		}
		if lhs == rhs {
			res += r.A * r.B
		}
	}
	return res
}

// eq1Toaster is DBToaster's partially incremental strategy (Figure 1b):
// per-group views maintained in O(1), result recomputed by looping over the
// distinct A values — O(n) per event.
type eq1Toaster struct {
	sumAB map[float64]float64 // map1: A -> sum(A*B)
	sumB  float64             // map2: sum(B)
	sumBA map[float64]float64 // map3: A -> sum(B)
	cnt   map[float64]float64
}

func newEQ1Toaster() *eq1Toaster {
	return &eq1Toaster{
		sumAB: make(map[float64]float64),
		sumBA: make(map[float64]float64),
		cnt:   make(map[float64]float64),
	}
}

func (q *eq1Toaster) Name() string       { return "eq1" }
func (q *eq1Toaster) Strategy() Strategy { return Toaster }

func (q *eq1Toaster) Apply(e stream.RABEvent) {
	t, x := e.Rec, e.X()
	q.sumAB[t.A] += x * t.A * t.B
	q.sumB += x * t.B
	q.sumBA[t.A] += x * t.B
	q.cnt[t.A] += x
	if q.cnt[t.A] == 0 {
		delete(q.sumAB, t.A)
		delete(q.sumBA, t.A)
		delete(q.cnt, t.A)
	}
}

func (q *eq1Toaster) Result() float64 {
	lhs := 0.5 * q.sumB
	var res float64
	for a, rhs := range q.sumBA {
		if lhs == rhs {
			res += q.sumAB[a]
		}
	}
	return res
}

// eq1RPAI is the paper's fully incremental strategy (Figure 1c): a PAI map
// keyed by the correlated aggregate lets the trigger run in O(1) — the
// affected group's entry moves from its old key to its new key, and the
// result is a single lookup.
type eq1RPAI struct {
	sumAB map[float64]float64 // map1: A -> sum(A*B)
	sumB  float64             // map2: sum(B)
	sumBA map[float64]float64 // map3: A -> sum(B)
	cnt   map[float64]float64
	agg   aggindex.Index // rhs_sum -> sum(A*B)
}

func newEQ1RPAI() *eq1RPAI { return newEQ1With(aggindex.KindPAI) }

// newEQ1With selects the aggregate-index implementation. Equality
// correlations need only point moves, so the hash-based PAI map's O(1) is
// optimal (section 2.1.3); the RPAI tree serves as the ablation showing
// what the hash map buys.
func newEQ1With(kind aggindex.Kind) *eq1RPAI {
	return &eq1RPAI{
		sumAB: make(map[float64]float64),
		sumBA: make(map[float64]float64),
		cnt:   make(map[float64]float64),
		agg:   aggindex.New(kind),
	}
}

// NewEQ1WithIndex is the exported ablation hook.
func NewEQ1WithIndex(kind aggindex.Kind) RABExecutor { return newEQ1With(kind) }

func (q *eq1RPAI) Name() string       { return "eq1" }
func (q *eq1RPAI) Strategy() Strategy { return RPAI }

func (q *eq1RPAI) Apply(e stream.RABEvent) {
	t, x := e.Rec, e.X()
	oldSumB := q.sumBA[t.A]        // old rhs_sum for t.A
	oldFinalAggSum := q.sumAB[t.A] // old sum(A*B) for t.A
	q.sumBA[t.A] += x * t.B        // map3
	q.sumB += x * t.B              // map2
	q.sumAB[t.A] += x * t.A * t.B  // map1
	q.agg.Add(oldSumB, -oldFinalAggSum)
	if v, ok := q.agg.Get(oldSumB); ok && v == 0 {
		q.agg.Delete(oldSumB)
	}
	q.cnt[t.A] += x
	if q.cnt[t.A] == 0 {
		delete(q.sumAB, t.A)
		delete(q.sumBA, t.A)
		delete(q.cnt, t.A)
		return
	}
	q.agg.Add(oldSumB+x*t.B, oldFinalAggSum+x*t.A*t.B)
}

func (q *eq1RPAI) Result() float64 {
	v, _ := q.agg.Get(0.5 * q.sumB)
	return v
}
