package main

import (
	"fmt"
	"math"
	"sort"

	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/sqlparse"
)

// Answers is every registered query's scalar and grouped result at one
// instant, in registration order.
type Answers struct {
	Scalar  []float64
	Grouped [][]engine.GroupResult
}

// ExpectAll evaluates the oracle for every registration of the workload.
func (g *Gen) ExpectAll() Answers {
	var a Answers
	for _, q := range g.w.Queries {
		s, gr := g.Expect(q)
		a.Scalar = append(a.Scalar, s)
		a.Grouped = append(a.Grouped, gr)
	}
	return a
}

// sameGroups compares grouped results bit for bit.
func sameGroups(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
		for k := range a[i].Key {
			if math.Float64bits(a[i].Key[k]) != math.Float64bits(b[i].Key[k]) {
				return false
			}
		}
	}
	return true
}

// diff counts the queries whose scalar or grouped answers differ bit for bit
// and describes the first difference.
func (a Answers) diff(b Answers) (int, string) {
	bad, first := 0, ""
	note := func(s string) {
		bad++
		if first == "" {
			first = s
		}
	}
	if len(a.Scalar) != len(b.Scalar) {
		return 1, fmt.Sprintf("%d queries vs %d", len(a.Scalar), len(b.Scalar))
	}
	for i := range a.Scalar {
		switch {
		case math.Float64bits(a.Scalar[i]) != math.Float64bits(b.Scalar[i]):
			note(fmt.Sprintf("query %d scalar %v vs %v", i, a.Scalar[i], b.Scalar[i]))
		case !sameGroups(a.Grouped[i], b.Grouped[i]):
			note(fmt.Sprintf("query %d grouped results differ (%d vs %d groups)", i, len(a.Grouped[i]), len(b.Grouped[i])))
		}
	}
	return bad, first
}

// Replay is the slow cross-check behind -verify: one bare engine.New
// executor per (query, partition), fed the same events the server was. It
// exists to check the oracle against the engine, not to time anything.
type Replay struct {
	specs []QuerySpec
	qs    []*query.Query
	parts map[int32][]engine.Executor
}

func NewReplay(specs []QuerySpec) (*Replay, error) {
	r := &Replay{specs: specs, parts: make(map[int32][]engine.Executor)}
	for _, s := range specs {
		q, err := sqlparse.Parse(s.SQL())
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", s.SQL(), err)
		}
		r.qs = append(r.qs, q)
	}
	return r, nil
}

func (r *Replay) Apply(e Event) error {
	exs := r.parts[e.Sym]
	if exs == nil {
		for _, q := range r.qs {
			ex, err := engine.New(q)
			if err != nil {
				return fmt.Errorf("engine.New(%s): %w", q, err)
			}
			exs = append(exs, ex)
		}
		r.parts[e.Sym] = exs
	}
	ev := e.boxed()
	for _, ex := range exs {
		ex.Apply(ev)
	}
	return nil
}

// Grouped returns query i's per-partition results, sorted by sym.
func (r *Replay) Grouped(i int) []engine.GroupResult {
	out := make([]engine.GroupResult, 0, len(r.parts))
	for sym, exs := range r.parts {
		out = append(out, engine.GroupResult{Key: []float64{float64(sym)}, Value: exs[i].Result()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key[0] < out[b].Key[0] })
	return out
}

// Answers assembles the replay's results. A scalar is the sum of the groups,
// which is exact for SUM and COUNT; an AVG scalar is a global quotient the
// bare executors cannot compose, so it is taken from want unchecked.
func (r *Replay) Answers(want Answers) Answers {
	var a Answers
	for i, s := range r.specs {
		gr := r.Grouped(i)
		var sum float64
		for _, g := range gr {
			sum += g.Value
		}
		if s.Agg == "avg" {
			sum = want.Scalar[i]
		}
		a.Scalar = append(a.Scalar, sum)
		a.Grouped = append(a.Grouped, gr)
	}
	return a
}
