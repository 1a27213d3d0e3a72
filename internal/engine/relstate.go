package engine

import (
	"fmt"

	"rpai/internal/query"
	"rpai/internal/rpai"
)

// This file implements the relation state of the aggregate-index
// optimization (paper section 4.3) for a single-relation query with one
// predicate v θ q_R of either shape: its correlated subquery ranges over R
// and is correlated only on R's own column (MST's and VWAP's shape), or it
// compares an R column against an uncorrelated aggregate over R (PSP's
// shape). With Q the qualifying subset of R, the state maintains C = |Q| and
// S = the sum of the query's term over Q through the single-relation
// aggregate-index machinery, so every update costs O(log n) (Table 1's rows).

// relPredKind distinguishes the two predicate shapes.
type relPredKind int

// Predicate shapes.
const (
	// predCorrelated: threshold θ SUM/COUNT(... WHERE inner-col θ' own-col) —
	// a correlated subquery over the same relation (MST).
	predCorrelated relPredKind = iota
	// predColumn: own-col θ scale*SUM(...) — a column compared against an
	// uncorrelated aggregate over the same relation (PSP).
	predColumn
)

// relPlan is the analyzed form of one relation's predicate.
type relPlan struct {
	kind relPredKind
	// threshold: the uncorrelated side (scaled subquery or constant).
	threshold query.Value
	// thetaCorrFirst: comparison with the correlated quantity first.
	thetaCorrFirst query.CmpOp
	// corr: the correlated subquery (predCorrelated).
	corr *query.Subquery
	// keyCol: correlation column (predCorrelated) or compared column
	// (predColumn).
	keyCol string
	// subOp: the subquery's correlation operator (predCorrelated).
	subOp query.CmpOp
}

func classifyRelPred(p query.Predicate) (relPlan, error) {
	uncorrelated := func(v query.Value) bool {
		return len(v.Free()) == 0 && (v.Sub == nil || !v.Sub.Correlated())
	}
	// Equality against an aggregate range is a point lookup, not a range
	// sum — that is the PAI path (Figure 1c), handled elsewhere.
	inequality := func(op query.CmpOp) bool { return op != query.Eq }
	// Correlated-subquery shape, either side.
	try := func(corr, other query.Value, theta query.CmpOp) (relPlan, bool) {
		s := corr.Sub
		if s == nil || !s.Correlated() || corr.Scale != 1 || len(s.Filters) > 0 || s.Nested != nil {
			return relPlan{}, false
		}
		if !inequality(theta) {
			return relPlan{}, false
		}
		if s.Kind != query.Sum && s.Kind != query.Count {
			return relPlan{}, false
		}
		if !uncorrelated(other) {
			return relPlan{}, false
		}
		inner, iok := s.Where.Inner.(query.Col)
		outer, ook := s.Where.Outer.(query.Col)
		if !iok || !ook || inner != outer {
			return relPlan{}, false
		}
		if s.Where.Op != query.Le && s.Where.Op != query.Ge && s.Where.Op != query.Lt && s.Where.Op != query.Gt {
			return relPlan{}, false
		}
		return relPlan{
			kind:           predCorrelated,
			threshold:      other,
			thetaCorrFirst: theta,
			corr:           s,
			keyCol:         string(inner),
			subOp:          s.Where.Op,
		}, true
	}
	if plan, ok := try(p.Left, p.Right, p.Op); ok {
		return plan, nil
	}
	if plan, ok := try(p.Right, p.Left, p.Op.Flip()); ok {
		return plan, nil
	}
	// Column-vs-uncorrelated shape, either side.
	tryCol := func(colSide, other query.Value, theta query.CmpOp) (relPlan, bool) {
		if colSide.Sub != nil || !inequality(theta) {
			return relPlan{}, false
		}
		c, ok := colSide.Expr.(query.Col)
		if !ok || !uncorrelated(other) {
			return relPlan{}, false
		}
		return relPlan{
			kind:           predColumn,
			threshold:      other,
			thetaCorrFirst: theta,
			keyCol:         string(c),
		}, true
	}
	if plan, ok := tryCol(p.Left, p.Right, p.Op); ok {
		return plan, nil
	}
	if plan, ok := tryCol(p.Right, p.Left, p.Op.Flip()); ok {
		return plan, nil
	}
	return relPlan{}, fmt.Errorf("predicate %s does not match the section 4.3 relation-state shapes", p)
}

// relBinding is one relation's plan bound to a schema: everything relState
// reads per event, shared by every relState of the plan.
type relBinding struct {
	plan   relPlan
	schema *query.Schema
	term   query.Bound
	// weight is the correlated aggregate's inner contribution (nil when it
	// counts, or under a column predicate); key the keyed column's slot.
	weight query.Bound
	key    int
	// thr binds the uncorrelated threshold subquery; thrConst is the literal
	// threshold when there is none.
	thr      *subBinding
	thrConst float64
	steer    rpai.Steer
	neg      bool
}

func bindRel(term query.Expr, pred query.Predicate, s *query.Schema) (*relBinding, error) {
	plan, err := classifyRelPred(pred)
	if err != nil {
		return nil, err
	}
	b := &relBinding{plan: plan, schema: s, term: query.Bind(term, s)}
	b.key, _ = s.Slot(plan.keyCol)
	if plan.threshold.Sub != nil {
		b.thr = bindSub(plan.threshold.Sub, s)
	} else {
		b.thrConst = plan.threshold.Expr.Eval(nil)
	}
	if plan.kind == predCorrelated {
		if plan.corr.Kind == query.Sum {
			b.weight = query.Bind(plan.corr.Of, s)
		}
		switch plan.subOp {
		case query.Le, query.Ge:
			b.steer = rpai.SteerWeightThrough
		default:
			b.steer = rpai.SteerWeightBefore
		}
		b.neg = plan.subOp == query.Ge || plan.subOp == query.Gt
	}
	return b, nil
}

// relState maintains one relation's qualifying count and term sum.
type relState struct {
	b   *relBinding
	thr *subState // uncorrelated threshold subquery (nil for constants)

	// levels is the predicate's one index (the paper's Algorithm 4 keeps one
	// per correlated predicate): per level of keyCol, the summed inner weight,
	// the live-row count and the summed term.
	//
	// predCorrelated: the correlated aggregate at a level — the RPAI key of
	// the paper — is the weight summed over the levels it ranges over, so it
	// is not stored; a threshold read steers by accumulated weight (b.steer).
	// <=/< correlations range over lower levels, so the tree is keyed by the
	// column; >=/> range over higher ones, so it is keyed by the negated
	// column (b.neg) and the same prefix read serves both orientations.
	//
	// predColumn: the weight lane is unused and reads steer by key.
	levels *rpai.LevelTree

	// probeBounds, probeCnt and probeSum are probe's scratch (see probe.go).
	probeBounds, probeCnt, probeSum []float64
}

func newRelState(b *relBinding) *relState {
	rs := &relState{b: b, levels: rpai.NewLevelTree()}
	if b.thr != nil {
		rs.thr = newSubState(b.thr)
	}
	return rs
}

func (rs *relState) threshold() float64 {
	if rs.thr != nil {
		return rs.b.plan.threshold.Scale * rs.thr.eval(nil)
	}
	return rs.b.thrConst
}

// apply is one event: one descent of the level tree by the event's level,
// adding its weight, count and term (and inserting or deleting the level
// when it appears or empties). Under a correlated predicate this moves the
// correlated aggregate of every later level too — the range shift of the
// paper's Algorithm 4 — because those values are prefix sums of the weight
// lane.
func (rs *relState) apply(row []float64, x float64) {
	b := rs.b
	if rs.thr != nil {
		rs.thr.apply(row, x)
	}
	term := b.term(row)
	k := row[b.key]
	var w float64
	if b.plan.kind == predCorrelated {
		w = 1
		if b.weight != nil {
			w = b.weight(row)
			if w <= 0 {
				panic("engine: relation-state maintenance requires positive inner contributions")
			}
		}
		if b.neg {
			k = -k
		}
	}
	rs.levels.Add(k, x*w, x, x*term)
}

// aggregates returns (count, term sum) over the qualifying subset.
func (rs *relState) aggregates() (cnt, sum float64) {
	return rs.read(rs.threshold())
}

// read returns (count, term sum) over the levels whose compared quantity
// qualifies against bound — the correlated aggregate (predCorrelated) or the
// column (predColumn) — in one descent. Lower values lead the order, so
// "below the bound" is a prefix read and "above it" the total minus one.
func (rs *relState) read(bound float64) (cnt, sum float64) {
	steer := rs.b.steer
	switch rs.b.plan.thetaCorrFirst {
	case query.Lt:
		return rs.levels.Prefix(steer, bound, true)
	case query.Le:
		return rs.levels.Prefix(steer, bound, false)
	case query.Gt:
		cnt, sum = rs.levels.Prefix(steer, bound, false)
	case query.Ge:
		cnt, sum = rs.levels.Prefix(steer, bound, true)
	default:
		panic("engine: equality thresholds are not part of the relation-state shape")
	}
	_, tc, ts := rs.levels.Total()
	return tc - cnt, ts - sum
}
