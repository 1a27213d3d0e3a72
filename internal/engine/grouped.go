package engine

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"rpai/internal/query"
)

// GroupResult is one group of a grouped query's output: the group-by column
// values (in Query.GroupBy order) and the group's aggregate.
type GroupResult struct {
	Key   []float64
	Value float64
}

// CompareKeys is the total order on group keys every grouped surface sorts
// by: column by column, numeric order with NaN after every number. It returns
// -1, 0 or +1. Keys are expected normalized (one zero, one NaN payload), as
// the serving layer stores them, so equal keys compare 0; the plain `<` is not
// a strict weak order once a NaN is present, and a sort using it returns an
// order that depends on the input permutation.
func CompareKeys(a, b []float64) int {
	for k := range a {
		x, y := a[k], b[k]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		case x == y:
			continue
		}
		// At least one side is NaN.
		xn, yn := math.IsNaN(x), math.IsNaN(y)
		switch {
		case xn && !yn:
			return 1
		case yn && !xn:
			return -1
		}
	}
	return 0
}

// SortGroups orders grouped results by key under CompareKeys.
func SortGroups(gs []GroupResult) {
	slices.SortFunc(gs, func(a, b GroupResult) int { return CompareKeys(a.Key, b.Key) })
}

// GroupedExecutor is implemented by executors that can emit per-group
// results for queries with GROUP BY columns (the grammar's Aggr[cols]).
// Result() on such queries returns the sum over all groups.
type GroupedExecutor interface {
	Executor
	// ResultGrouped returns the qualifying groups sorted by key.
	ResultGrouped() []GroupResult
}

// ResultGrouped implements GroupedExecutor for the naive executor.
func (n *NaiveExec) ResultGrouped() []GroupResult {
	acc := map[string]*GroupResult{}
	cnts := map[string]float64{}
	for _, t := range n.live {
		ok := true
		for _, p := range n.q.Preds {
			if !p.Op.Compare(n.evalValue(p.Left, t), n.evalValue(p.Right, t)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		key, vals := groupProjection(n.q.GroupBy, t)
		g := acc[key]
		if g == nil {
			g = &GroupResult{Key: vals}
			acc[key] = g
		}
		g.Value += n.q.Agg.Eval(t)
		cnts[key]++
	}
	finishGroups(n.q.Outer, acc, cnts)
	return sortedGroups(acc)
}

// finishGroups rewrites each group's accumulated term sum into the outer
// aggregate's value: counts for COUNT, sum/count for AVG (empty groups are
// never materialized, so the 0-count case cannot arise here).
func finishGroups(outer query.AggKind, acc map[string]*GroupResult, cnts map[string]float64) {
	if outer == query.Sum {
		return
	}
	for key, g := range acc {
		g.Value = finishAgg(outer, g.Value, cnts[key])
	}
}

// ResultGrouped implements GroupedExecutor for the general algorithm. The
// result maps are already keyed by the union of the predicate columns and
// the group-by columns (see NewGeneral), so this only re-projects.
func (g *GeneralExec) ResultGrouped() []GroupResult {
	outer := make(query.Tuple, len(g.groupCols))
	acc := map[string]*GroupResult{}
	cnts := map[string]float64{}
	for _, gr := range g.groups {
		for i, c := range g.groupCols {
			outer[c] = gr.vals[i]
		}
		ok := true
		for _, p := range g.q.Preds {
			if !p.Op.Compare(g.evalValue(p.Left, outer), g.evalValue(p.Right, outer)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		key, vals := groupProjection(g.q.GroupBy, outer)
		out := acc[key]
		if out == nil {
			out = &GroupResult{Key: vals}
			acc[key] = out
		}
		out.Value += gr.agg
		cnts[key] += gr.cnt
	}
	finishGroups(g.q.Outer, acc, cnts)
	return sortedGroups(acc)
}

func groupProjection(cols []string, t query.Tuple) (string, []float64) {
	vals := make([]float64, len(cols))
	var b strings.Builder
	for i, c := range cols {
		vals[i] = t[c]
		b.WriteString(strconv.FormatFloat(vals[i], 'g', -1, 64))
		b.WriteByte('|')
	}
	return b.String(), vals
}

func sortedGroups(acc map[string]*GroupResult) []GroupResult {
	out := make([]GroupResult, 0, len(acc))
	for _, g := range acc {
		out = append(out, *g)
	}
	SortGroups(out)
	return out
}
