package engine

import (
	"fmt"

	"rpai/internal/aggindex"
	"rpai/internal/query"
)

// This file implements predicate-generalized sharing: N queries that differ
// only in their threshold constant (`price < 0.75*SUM(...)` vs
// `price < 0.9*SUM(...)`) form a *family* that shares one executor's
// maintained state, because the RPAI index answers any threshold as a probe
// point. FamilyKey decides membership and extracts the constant; ResultFan
// answers all of a family's thresholds against one executor, each lane
// bit-identical to a dedicated executor's Result.

// FamilyKey reports whether q is eligible for threshold-family sharing, and
// if so returns the family key — a canonical rendering of everything that
// shapes the executor's *maintained* state, with only the read-time
// threshold constant masked — plus that constant.
//
// Unlike PredSig, which masks every constant, the family key preserves
// constants that feed maintenance (subquery filter thresholds, correlated
// weights): two queries may only share an executor when their maintained
// state is identical event for event. Eligible queries are the
// single-predicate scalar aggregate-index shapes: the threshold side is an
// uncorrelated scaled subquery (constant = the scale) or a literal constant,
// and the executor strategy is "aggindex" (AggIndexExec or relStateExec),
// whose Result reads the index at the threshold without consulting it during
// Apply. The key is orientation-normalized by construction: it is built from
// the executor's analyzed plan, which already folds flipped spellings.
func FamilyKey(q *query.Query) (key string, constant float64, ok bool) {
	key, _, constant, _, ok = familyKeys(q)
	return key, constant, ok
}

// familyKeys is FamilyKey's full form: it also renders baseKey — the key
// with the aggregate term masked to "#", identifying the maintained state
// that does not depend on the term (the count index and the correlation
// structure) — and reports whether the executor maintains a count side at
// all. StateKey builds the StateSet identity from these.
func familyKeys(q *query.Query) (key, baseKey string, constant float64, hasCnt, ok bool) {
	if len(q.GroupBy) > 0 || len(q.Preds) != 1 {
		return "", "", 0, false, false
	}
	ex, err := New(q)
	if err != nil {
		return "", "", 0, false, false
	}
	switch e := ex.(type) {
	case *AggIndexExec:
		thr, c, ok := maskThreshold(e.plan.Threshold)
		if !ok {
			return "", "", 0, false, false
		}
		render := func(agg string) string {
			return fmt.Sprintf("aggidx|agg=%s|key=%s|subop=%s|theta=%s|corr=%s|thr=%s",
				agg, e.plan.KeyCol, e.plan.SubOp, e.plan.ThetaCorrFirst, e.plan.Corr, thr)
		}
		return render(q.Agg.String()), render("#"), c, false, true
	case *relStateExec:
		pl := e.rs.plan
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

// FanExecutor is implemented by executors that can answer many threshold
// constants against one maintained state. consts must be sorted ascending;
// dst has the same length; dst[i] is bit-identical to the Result of a
// dedicated executor built with constant consts[i] and fed the same events.
type FanExecutor interface {
	ResultFan(consts, dst []float64)
}

// fanProbe holds the scratch both fan implementations need: probe keys
// (clobbered by the shared descent) and a reversal buffer for negative
// subquery bases.
type fanProbe struct {
	keys []float64
	out  []float64
}

// keysFor computes the per-lane probe keys. With a subquery threshold the
// probe is constant*base exactly as the solo Result computes
// Scale*thr.eval(nil); with a literal threshold the probe is the constant
// itself. The keys are monotone in consts: ascending for base >= 0,
// descending for base < 0 (reversed reports the latter, in which case the
// keys are reversed in place so batch probes still see ascending order).
func (fp *fanProbe) keysFor(consts []float64, hasSub bool, base float64) (keys []float64, reversed bool) {
	fp.keys = fp.keys[:0]
	for _, c := range consts {
		if hasSub {
			fp.keys = append(fp.keys, c*base)
		} else {
			fp.keys = append(fp.keys, c)
		}
	}
	reversed = hasSub && base < 0
	if reversed {
		for i, j := 0, len(fp.keys)-1; i < j; i, j = i+1, j-1 {
			fp.keys[i], fp.keys[j] = fp.keys[j], fp.keys[i]
		}
	}
	return fp.keys, reversed
}

// scratchOut returns a lane-count-sized buffer for reversed-order results.
func (fp *fanProbe) scratchOut(n int) []float64 {
	if cap(fp.out) < n {
		fp.out = make([]float64, n)
	}
	return fp.out[:n]
}

// ResultFan implements FanExecutor: one shared descent (or K point probes
// for equality plans) answers every lane.
func (ex *AggIndexExec) ResultFan(consts, dst []float64) {
	var base float64
	hasSub := ex.thr != nil
	if hasSub {
		base = ex.thr.eval(nil)
	}
	keys, reversed := ex.fan.keysFor(consts, hasSub, base)
	out := dst
	if reversed {
		out = ex.fan.scratchOut(len(dst))
	}
	switch ex.plan.ThetaCorrFirst {
	case query.Lt:
		aggindex.PrefixSums(ex.agg, keys, out, false)
	case query.Le:
		aggindex.PrefixSums(ex.agg, keys, out, true)
	case query.Gt:
		aggindex.PrefixSums(ex.agg, keys, out, true)
		total := ex.agg.Total()
		for i := range out {
			out[i] = total - out[i]
		}
	case query.Ge:
		aggindex.PrefixSums(ex.agg, keys, out, false)
		total := ex.agg.Total()
		for i := range out {
			out[i] = total - out[i]
		}
	case query.Eq:
		for i, k := range keys {
			v, _ := ex.agg.Get(k)
			out[i] = v
		}
	default:
		panic("engine: unknown comparison " + ex.plan.ThetaCorrFirst.String())
	}
	if reversed {
		for i := range out {
			dst[len(out)-1-i] = out[i]
		}
	}
}

// ResultFan implements FanExecutor for the relation-state executor.
func (ex *relStateExec) ResultFan(consts, dst []float64) { ex.rs.probeFan(false, consts, dst) }

// probeFan is the fan counterpart of aggregates(): one probe per lane
// against the term index (cntSide=false, the side relStateExec.Result's sum
// comes from) or the count index (cntSide=true, backing COUNT and AVG probe
// lanes). Both sides are maintained identically, so the descent logic is
// shared.
func (rs *relState) probeFan(cntSide bool, consts, dst []float64) {
	var base float64
	hasSub := rs.thr != nil
	if hasSub {
		base = rs.thr.eval(nil)
	}
	if rs.plan.kind == PredColumn {
		// treemap probes have no batch path; K point probes, like K solo
		// reads would do.
		byCol := rs.termByCol
		if cntSide {
			byCol = rs.cntByCol
		}
		idx := treeSums{byCol}
		for i, c := range consts {
			thr := c
			if hasSub {
				thr = c * base
			}
			switch rs.plan.thetaCorrFirst {
			case query.Lt:
				dst[i] = idx.GetSumLess(thr)
			case query.Le:
				dst[i] = idx.GetSum(thr)
			case query.Gt:
				dst[i] = idx.SuffixSumGreater(thr)
			case query.Ge:
				dst[i] = idx.SuffixSum(thr)
			default:
				panic("engine: equality thresholds are not part of the multi-relation shape")
			}
		}
		return
	}
	keys, reversed := rs.fan.keysFor(consts, hasSub, base)
	out := dst
	if reversed {
		out = rs.fan.scratchOut(len(dst))
	}
	// The suffix orientations batch as total - prefix only where the index
	// defines SuffixSum that way (the tree representations do; see
	// rpai.Tree.SuffixSum). Elsewhere each lane calls the implementation's
	// own method, exactly as a solo aggregates() would.
	var side aggindex.Index // stays nil on the arena path, which probes a lane of rs.idx
	isTree := true
	if rs.idx == nil {
		side = rs.term
		if cntSide {
			side = rs.cnt
		}
		_, isTree = side.(interface{ PrefixSums(_, _ []float64, _ bool) })
	}
	// prefixes answers every probe in one shared descent of the side and
	// returns the side's total.
	prefixes := func(inclusive bool) (total float64) {
		if side != nil {
			aggindex.PrefixSums(side, keys, out, inclusive)
			return side.Total()
		}
		cntTotal, termTotal := rs.idx.Total()
		if cntSide {
			rs.idx.PrefixSums(0, keys, out, inclusive)
			return cntTotal
		}
		rs.idx.PrefixSums(1, keys, out, inclusive)
		return termTotal
	}
	switch rs.plan.thetaCorrFirst {
	case query.Lt:
		prefixes(false)
	case query.Le:
		prefixes(true)
	case query.Gt:
		if isTree {
			total := prefixes(true)
			for i := range out {
				out[i] = total - out[i]
			}
		} else {
			for i, k := range keys {
				out[i] = side.SuffixSumGreater(k)
			}
		}
	case query.Ge:
		if isTree {
			total := prefixes(false)
			for i := range out {
				out[i] = total - out[i]
			}
		} else {
			for i, k := range keys {
				out[i] = side.SuffixSum(k)
			}
		}
	default:
		panic("engine: equality thresholds are not part of the multi-relation shape")
	}
	if reversed {
		for i := range out {
			dst[len(out)-1-i] = out[i]
		}
	}
}
