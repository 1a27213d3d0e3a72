package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rpai/internal/query"
)

// This file is the read half of the StateSet/ProbePlan split. A *state set*
// is the maintained base-relation state (an executor's indexes, owned by
// whoever Applies events); a *probe plan* is a pure read against that state:
// an outer aggregate kind, a threshold constant, and an optional residual
// partition-column conjunct. The catalog keys state sets by StateKey and
// attaches any number of probe plans to one set; ResultProbe answers all of
// them against the shared state, each lane bit-identical to a dedicated
// executor's Result.
//
// Three sharing forms ride on this split:
//
//   - threshold variants: lanes differ only in Const — N queries that differ
//     only in their threshold constant (`price < 0.75*SUM(...)` vs
//     `price < 0.9*SUM(...)`) share one state set, because the index answers
//     any threshold as a probe point;
//   - aggregate variants: SUM, COUNT(*), and AVG lanes over one state set —
//     relation state maintains both a count and a term lane regardless of
//     the founding query's outer aggregate, so every variant is a probe;
//   - filtered variants: a lane whose query carries one extra bare
//     partition-column conjunct; the conjunct is split off as a residual
//     gate and applied per partition at probe time (see SplitResidual).

// ProbeSpec is one probe plan: everything a read needs beyond the shared
// maintained state. The zero Residual* fields mean "no residual conjunct".
// ProbeSpec is comparable, so it can key lane dedup maps directly.
type ProbeSpec struct {
	// Kind is the variant's outer aggregate. Sum and Count lanes receive a
	// final value; Avg lanes receive the raw (term sum, count) pair and the
	// caller forms the quotient at its own aggregation boundary, so a
	// partitioned service can compose the exact global average.
	Kind query.AggKind
	// Const is the threshold constant (the family lane position).
	Const float64
	// Residual* describe the optional extra conjunct `col op val` over a
	// partition column, evaluated as a per-partition gate at probe time.
	Residual    bool
	ResidualCol string
	ResidualOp  query.CmpOp
	ResidualVal float64
}

// String renders the spec canonically (used by EXPLAIN and the wire layer):
// "sum@0.75", "count@0.9 | sym > 2".
func (s ProbeSpec) String() string {
	var b strings.Builder
	switch s.Kind {
	case query.Count:
		b.WriteString("count")
	case query.Avg:
		b.WriteString("avg")
	default:
		b.WriteString("sum")
	}
	b.WriteByte('@')
	b.WriteString(strconv.FormatFloat(s.Const, 'g', -1, 64))
	if s.Residual {
		fmt.Fprintf(&b, " | %s %s %s", s.ResidualCol, s.ResidualOp,
			strconv.FormatFloat(s.ResidualVal, 'g', -1, 64))
	}
	return b.String()
}

// GateOn evaluates the residual conjunct against one partition's key values
// (aligned with partCols). Specs without a residual are always on; a
// residual column missing from the partitioning never arises for specs built
// by SplitResidual, but reads as gated-off rather than panicking.
func (s ProbeSpec) GateOn(partCols []string, key []float64) bool {
	if !s.Residual {
		return true
	}
	for i, c := range partCols {
		if c == s.ResidualCol && i < len(key) {
			return s.ResidualOp.Compare(key[i], s.ResidualVal)
		}
	}
	return false
}

// FinishProbe combines a lane's ResultProbe outputs into its final value:
// SUM and COUNT lanes are already final in val; AVG lanes carry the raw
// (term sum, count) pair and finish as their quotient (0 when the count is
// 0, matching a dedicated executor over an empty qualifying set).
// Aggregation boundaries — a partitioned service's scalar read, a
// subscriber frame — call this after summing the raw pair across
// partitions, yielding the exact global average rather than a sum of
// per-partition averages.
func FinishProbe(spec ProbeSpec, val, cnt float64) float64 {
	if spec.Kind != query.Avg {
		return val
	}
	return finishAgg(query.Avg, val, cnt)
}

// probeScratch backs a multi-lane ResultProbe's sorted constant list and
// descent outputs, reused across reads.
type probeScratch struct {
	consts, cnts, sums []float64
}

func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ResultProbe implements RowExecutor for the relation-state executor. The
// level tree carries a count and a term lane (see relState), so every
// aggregate variant reads the same descent: SUM lanes take its term sum,
// COUNT lanes its count, AVG lanes both. A single lane is one read at its
// bound, the descent Result makes; more lanes share one descent over their
// sorted unique constants (relState.probe). Each lane is bit-identical to a
// dedicated executor's Result.
func (ex *relStateExec) ResultProbe(specs []ProbeSpec, vals, cnts []float64) {
	if len(specs) == 1 {
		bound := specs[0].Const
		if ex.rs.thr != nil {
			bound *= ex.rs.thr.eval(nil)
		}
		cnt, sum := ex.rs.read(bound)
		fillLane(specs[0].Kind, 0, vals, cnts, cnt, sum)
		return
	}
	ps := &ex.probe
	ps.consts = ps.consts[:0]
	for _, s := range specs {
		ps.consts = append(ps.consts, s.Const)
	}
	slices.Sort(ps.consts)
	ps.consts = slices.Compact(ps.consts)
	ps.cnts = sized(ps.cnts, len(ps.consts))
	ps.sums = sized(ps.sums, len(ps.consts))
	ex.rs.probe(ps.consts, ps.cnts, ps.sums)
	for i, s := range specs {
		j, _ := slices.BinarySearch(ps.consts, s.Const)
		fillLane(s.Kind, i, vals, cnts, ps.cnts[j], ps.sums[j])
	}
}

// fillLane writes lane i of a ResultProbe from its qualifying count and
// term sum: the sum for SUM, the count for COUNT, the raw pair for AVG.
func fillLane(kind query.AggKind, i int, vals, cnts []float64, cnt, sum float64) {
	switch kind {
	case query.Sum:
		vals[i] = sum
	case query.Count:
		vals[i] = cnt
	case query.Avg:
		vals[i], cnts[i] = sum, cnt
	default:
		panic("engine: non-streamable probe kind " + kind.String())
	}
}

// ResultProbe implements RowExecutor for the general algorithm. Its state
// answers only its own query, so the catalog never installs another lane on
// it: every lane reads the qualifying groups at the query's own predicates,
// the loop Result runs.
func (g *GeneralExec) ResultProbe(specs []ProbeSpec, vals, cnts []float64) {
	cnt, sum := g.totals()
	for i, s := range specs {
		fillLane(s.Kind, i, vals, cnts, cnt, sum)
	}
}

// ResultProbe implements RowExecutor for the PAI equality executor. This
// state maintains only the term index, so SUM lanes are served directly and
// COUNT lanes only when the maintained aggregate term is the constant 1 (then
// the term index is bitwise a count index — the catalog's attach rule only
// routes COUNT lanes to such sets). AVG lanes need the missing count side and
// are a caller bug here. Each lane is one point probe of the map at its
// threshold, computed as Result computes it.
func (ex *AggIndexExec) ResultProbe(specs []ProbeSpec, vals, cnts []float64) {
	var base float64
	if ex.thr != nil {
		base = ex.thr.eval(nil)
	}
	for i, s := range specs {
		switch s.Kind {
		case query.Avg:
			panic("engine: aggindex state has no count side for AVG probes")
		case query.Count:
			if c, ok := ex.b.q.Agg.(query.Const); !ok || c != 1 {
				panic("engine: COUNT probe against a non-count aggindex term")
			}
		}
		thr := s.Const
		if ex.thr != nil {
			thr = s.Const * base
		}
		vals[i] = ex.read(thr)
	}
}

// probe is the multi-threshold counterpart of aggregates(): for each
// constant (consts sorted ascending; cnt and sum the same length) the
// qualifying count and term sum, each bit-identical to what aggregates()
// reads at that threshold, from one shared descent of the level tree.
func (rs *relState) probe(consts, cnt, sum []float64) {
	// The bounds: constant*base exactly as the solo Result computes
	// Scale*thr.eval(nil), or the constant itself for a literal threshold.
	var base float64
	if rs.thr != nil {
		base = rs.thr.eval(nil)
	}
	bounds := rs.probeBounds[:0]
	for _, c := range consts {
		if rs.thr != nil {
			c *= base
		}
		bounds = append(bounds, c)
	}
	rs.probeBounds = bounds
	// The shared descent needs ascending bounds; a negative base made them
	// descending, so descend over them reversed and reverse the answers back.
	reversed := base < 0
	outC, outS := cnt, sum
	if reversed {
		slices.Reverse(bounds)
		rs.probeCnt = sized(rs.probeCnt, len(cnt))
		rs.probeSum = sized(rs.probeSum, len(sum))
		outC, outS = rs.probeCnt, rs.probeSum
	}
	// As in read: "above the bound" is the total minus the prefix.
	switch rs.b.plan.thetaCorrFirst {
	case query.Lt, query.Ge:
		rs.levels.Prefixes(rs.b.steer, bounds, true, outC, outS)
	case query.Le, query.Gt:
		rs.levels.Prefixes(rs.b.steer, bounds, false, outC, outS)
	default:
		panic("engine: equality thresholds are not part of the multi-relation shape")
	}
	if op := rs.b.plan.thetaCorrFirst; op == query.Gt || op == query.Ge {
		_, tc, ts := rs.levels.Total()
		for i := range outC {
			outC[i], outS[i] = tc-outC[i], ts-outS[i]
		}
	}
	if reversed {
		for i := range outC {
			cnt[len(cnt)-1-i], sum[len(sum)-1-i] = outC[i], outS[i]
		}
	}
}

// StateKey reports whether q can ride a shared state set, and if so returns
// the set's identity and q's probe plan against it.
//
//   - key identifies the exact maintained state: a canonical rendering of
//     everything that shapes the executor's maintained state, including the
//     aggregate term expression, with only the read-time threshold constant
//     masked. Queries with equal keys share a set outright, whatever their
//     outer aggregate or threshold constant — the state carries both lanes
//     and answers any threshold.
//   - baseKey is key with the aggregate term masked. A COUNT(*) variant
//     reads only the count lane, which is identical across term
//     expressions, so it may attach to any relation-state set whose baseKey
//     matches. baseKey is empty for the PAI/aggindex shape, which maintains
//     no count side (COUNT(*) there matches through key: its term is the
//     constant 1, so only constant-1 sets qualify; AVG is ineligible).
//
// Unlike PredSig, which masks every constant, the key preserves constants
// that feed maintenance (subquery filter thresholds, correlated weights): two
// queries may only share state when it is identical event for event. The key
// is orientation-normalized by construction: it is built from the executor's
// analyzed plan, which already folds flipped spellings. The keys are built
// from the SUM form of q — same predicates, outer forced to SUM — because
// maintained state never depends on the outer aggregate.
func StateKey(q *query.Query) (key, baseKey string, spec ProbeSpec, ok bool) {
	sumForm := *q
	sumForm.Outer = query.Sum
	key, baseKey, c, hasCnt, ok := stateKeys(&sumForm)
	if !ok {
		return "", "", ProbeSpec{}, false
	}
	if !hasCnt {
		baseKey = ""
		if q.Outer == query.Avg {
			// No count side to probe: AVG cannot ride this state.
			return "", "", ProbeSpec{}, false
		}
	}
	return key, baseKey, ProbeSpec{Kind: q.Outer, Const: c}, true
}

// stateKeys renders StateKey's key and baseKey for the executor New builds
// for q, extracts the threshold constant, and reports whether the executor
// maintains a count side. Eligible queries are the single-predicate scalar
// aggregate-index shapes whose threshold side is an uncorrelated scaled
// subquery (constant = the scale) or a literal constant: their Result reads
// the index at the threshold without consulting it during Apply.
func stateKeys(q *query.Query) (key, baseKey string, constant float64, hasCnt, ok bool) {
	if len(q.GroupBy) > 0 || len(q.Preds) != 1 {
		return "", "", 0, false, false
	}
	ex, err := New(q)
	if err != nil {
		return "", "", 0, false, false
	}
	switch e := ex.(type) {
	case *AggIndexExec:
		pl := e.b.plan
		thr, c, ok := maskThreshold(pl.Threshold)
		if !ok {
			return "", "", 0, false, false
		}
		render := func(agg string) string {
			return fmt.Sprintf("aggidx|agg=%s|key=%s|subop=%s|theta=%s|corr=%s|thr=%s",
				agg, pl.KeyCol, pl.SubOp, pl.ThetaCorrFirst, pl.Corr, thr)
		}
		return render(q.Agg.String()), render("#"), c, false, true
	case *relStateExec:
		pl := e.rs.b.plan
		thr, c, ok := maskThreshold(pl.threshold)
		if !ok {
			return "", "", 0, false, false
		}
		corr := ""
		if pl.corr != nil {
			corr = pl.corr.String()
		}
		render := func(agg string) string {
			return fmt.Sprintf("rel%d|agg=%s|key=%s|subop=%s|theta=%s|corr=%s|thr=%s",
				pl.kind, agg, pl.keyCol, pl.subOp, pl.thetaCorrFirst, corr, thr)
		}
		return render(q.Agg.String()), render("#"), c, true, true
	}
	return "", "", 0, false, false
}

// maskThreshold renders the uncorrelated threshold side with its read-time
// constant masked, returning that constant. A scaled subquery masks the
// scale but keeps the subquery rendering verbatim (its internal constants
// shape maintained state); a literal constant masks to "?". Any other
// expression is ineligible — there is no single constant to generalize.
func maskThreshold(v query.Value) (rendered string, constant float64, ok bool) {
	if v.Sub != nil {
		return "? * " + v.Sub.String(), v.Scale, true
	}
	if c, isConst := v.Expr.(query.Const); isConst {
		return "?", float64(c), true
	}
	return "", 0, false
}

// SplitResidual splits a two-conjunct query into a shareable base query and
// a residual probe-time gate: one conjunct must be a bare comparison between
// a partitioning column and a constant, and the remaining single-conjunct
// query must itself be StateKey-eligible. The residual column must be a
// partition column because the gate is evaluated per partition — every tuple
// of a partition agrees on its value, so gating the partition's lane is
// exactly filtering its tuples.
//
// The returned base is a fresh query (q is not modified); spec is q's full
// probe plan against base's state set, residual included.
func SplitResidual(q *query.Query, partCols []string) (base *query.Query, spec ProbeSpec, ok bool) {
	if len(q.GroupBy) > 0 || len(q.Preds) != 2 {
		return nil, ProbeSpec{}, false
	}
	for i := range q.Preds {
		col, op, val, bare := bareConjunct(q.Preds[i], partCols)
		if !bare {
			continue
		}
		b := *q
		b.Preds = []query.Predicate{q.Preds[1-i]}
		_, _, sp, keyOK := StateKey(&b)
		if !keyOK {
			continue
		}
		sp.Residual = true
		sp.ResidualCol = col
		sp.ResidualOp = op
		sp.ResidualVal = val
		return &b, sp, true
	}
	return nil, ProbeSpec{}, false
}

// bareConjunct matches `col op const` (either orientation) where col is one
// of the partitioning columns, normalizing to the column-first direction.
func bareConjunct(p query.Predicate, partCols []string) (col string, op query.CmpOp, val float64, ok bool) {
	left, right := p.Left, p.Right
	op = p.Op
	if c, isConst := bareExpr(left); isConst {
		// const op col → col flipped-op const
		if name, isCol := bareCol(right); isCol {
			return name, op.Flip(), c, slices.Contains(partCols, name)
		}
		return "", 0, 0, false
	}
	if name, isCol := bareCol(left); isCol {
		if c, isConst := bareExpr(right); isConst {
			return name, op, c, slices.Contains(partCols, name)
		}
	}
	return "", 0, 0, false
}

func bareCol(v query.Value) (string, bool) {
	if v.Sub != nil {
		return "", false
	}
	c, ok := v.Expr.(query.Col)
	return string(c), ok
}

func bareExpr(v query.Value) (float64, bool) {
	if v.Sub != nil {
		return 0, false
	}
	c, ok := v.Expr.(query.Const)
	return float64(c), ok
}
