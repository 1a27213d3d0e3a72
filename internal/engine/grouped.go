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
	acc := groupAcc{map[string]*GroupResult{}, map[string]float64{}}
	for _, t := range n.live {
		if !n.qualifies(t) {
			continue
		}
		vals := make([]float64, len(n.q.GroupBy))
		for i, c := range n.q.GroupBy {
			vals[i] = t[c]
		}
		acc.add(vals, n.q.Agg.Eval(t), 1)
	}
	return acc.finish(n.q.Outer)
}

// ResultGrouped implements GroupedExecutor for the general algorithm. The
// result maps are already keyed by the union of the predicate columns and
// the group-by columns (see NewGeneral), so this only re-projects.
func (g *GeneralExec) ResultGrouped() []GroupResult {
	acc := groupAcc{map[string]*GroupResult{}, map[string]float64{}}
	for _, gr := range g.groups {
		if !g.qualifies(gr.vals) {
			continue
		}
		vals := make([]float64, len(g.b.groupBy))
		for i, pos := range g.b.groupBy {
			vals[i] = gr.vals[pos]
		}
		acc.add(vals, gr.agg, gr.cnt)
	}
	return acc.finish(g.b.q.Outer)
}

// groupAcc sums a grouped query's qualifying term sums and counts per group.
type groupAcc struct {
	groups map[string]*GroupResult
	cnts   map[string]float64
}

// add adds a term sum and a count to the group whose key values are vals.
func (a groupAcc) add(vals []float64, agg, cnt float64) {
	key := groupKey(vals)
	g := a.groups[key]
	if g == nil {
		g = &GroupResult{Key: vals}
		a.groups[key] = g
	}
	g.Value += agg
	a.cnts[key] += cnt
}

// finish returns the groups sorted by key, each term sum rewritten into the
// outer aggregate's value: counts for COUNT, sum/count for AVG (empty groups
// are never materialized, so the 0-count case cannot arise here).
func (a groupAcc) finish(outer query.AggKind) []GroupResult {
	out := make([]GroupResult, 0, len(a.groups))
	for key, g := range a.groups {
		if outer != query.Sum {
			g.Value = finishAgg(outer, g.Value, a.cnts[key])
		}
		out = append(out, *g)
	}
	SortGroups(out)
	return out
}

// groupKey is the text a group's projected values are keyed by: each value
// in 'g' format, terminated by '|'. GeneralExec.group builds the same text in
// place.
func groupKey(vals []float64) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('|')
	}
	return b.String()
}
