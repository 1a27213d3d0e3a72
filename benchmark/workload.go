package main

import (
	"fmt"
	"time"
)

// Workload is one frozen traffic mix. Every size and rate here is a constant
// of the benchmark: --seed is the only argument that changes the generated
// input and --seconds the only one that changes how long it is driven.
type Workload struct {
	// Name is the workload's name in BENCHMARK.json, which also records why
	// it exists; README.md says which optimisation it is the control for.
	Name string

	// Partitions is the number of sym values and Levels the number of
	// distinct prices per sym; Partitions*Levels is the key space the index
	// trees draw from.
	Partitions int
	Levels     int
	// Preload is P: rows inserted before any timed phase. The timed phases
	// delete as often as they insert, so the state stays at P rows.
	Preload int
	// Rate is R: the paced phase's fixed absolute open-loop rate in events
	// per second. It was measured once (about 35% of the saturate rate on the
	// recording host) and frozen; it is never re-derived per run.
	Rate int

	// Queries are the registrations, in QueryID order (IDs start at 1).
	// Query 0 of the issue's text is Queries[0], QueryID 1: every latency is
	// taken on it and the marker partition is counted by it.
	Queries []QuerySpec

	// PushSubs and PullReaders are the readers attached on query 0 during
	// the paced phase; PullEvery is each pull reader's fixed schedule.
	// ReadersInSaturate attaches the same readers during saturate as well.
	PushSubs          int
	PullReaders       int
	PullEvery         time.Duration
	ReadersInSaturate bool
}

// QuerySpec is one registration of the VWAP family, kept structured so the
// oracle can evaluate it without parsing SQL. The SQL it renders is
//
//	SELECT <Agg> FROM bids b WHERE [b.sym > ResidualSym AND]
//	  <Threshold> * (SELECT SUM(b1.volume) FROM bids b1 [WHERE b1.volume > InnerMinVol])
//	  < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
type QuerySpec struct {
	Agg         string // "sum", "count" or "avg"
	Threshold   float64
	InnerMinVol int // 0: no inner filter
	HasInner    bool
	ResidualSym int
	HasResidual bool
}

// SQL renders the registration text sent to the server.
func (q QuerySpec) SQL() string {
	agg := "SUM(b.price * b.volume)"
	switch q.Agg {
	case "count":
		agg = "COUNT(*)"
	case "avg":
		agg = "AVG(b.price * b.volume)"
	}
	residual, inner := "", ""
	if q.HasResidual {
		residual = fmt.Sprintf("b.sym > %d AND ", q.ResidualSym)
	}
	if q.HasInner {
		inner = fmt.Sprintf(" WHERE b1.volume > %d", q.InnerMinVol)
	}
	return fmt.Sprintf("SELECT %s FROM bids b WHERE %s%g * (SELECT SUM(b1.volume) FROM bids b1%s)"+
		" < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)", agg, residual, q.Threshold, inner)
}

var vwap = QuerySpec{Agg: "sum", Threshold: 0.75}

// multiQueries is the multi-distinct catalog: 16 structurally distinct
// queries (the inner filter constant shapes maintained state, so none can
// share a state set) plus 8 variants that do share set 0 — threshold family,
// COUNT/AVG aggregate variants, and residual lanes.
func multiQueries() []QuerySpec {
	var qs []QuerySpec
	for i := 0; i < 16; i++ {
		qs = append(qs, QuerySpec{Agg: "sum", Threshold: 0.75, HasInner: true, InnerMinVol: i})
	}
	base := qs[0]
	variant := func(f func(q *QuerySpec)) {
		q := base
		f(&q)
		qs = append(qs, q)
	}
	variant(func(q *QuerySpec) { q.Threshold = 0.5 })
	variant(func(q *QuerySpec) { q.Threshold = 0.9 })
	variant(func(q *QuerySpec) { q.Threshold = 0.25 })
	variant(func(q *QuerySpec) { q.Agg = "count" })
	variant(func(q *QuerySpec) { q.Agg = "avg" })
	variant(func(q *QuerySpec) { q.HasResidual, q.ResidualSym = true, 100 })
	variant(func(q *QuerySpec) { q.HasResidual, q.ResidualSym = true, 300 })
	variant(func(q *QuerySpec) { q.Agg, q.HasResidual, q.ResidualSym = "count", true, 200 })
	return qs
}

// workloads lists the four traffic mixes in report order.
func workloads() []Workload {
	return []Workload{
		{
			Name:       "deep-index",
			Partitions: 2, Levels: 50000, Preload: 100000, Rate: 20000,
			Queries:  []QuerySpec{vwap},
			PushSubs: 1, PullReaders: 1, PullEvery: 10 * time.Millisecond,
		},
		{
			Name:       "wide-shallow",
			Partitions: 4096, Levels: 16, Preload: 200000, Rate: 40000,
			Queries:  []QuerySpec{vwap},
			PushSubs: 1, PullReaders: 1, PullEvery: 20 * time.Millisecond,
		},
		{
			Name:       "multi-distinct",
			Partitions: 512, Levels: 256, Preload: 20000, Rate: 3000,
			Queries:  multiQueries(),
			PushSubs: 1, PullReaders: 1, PullEvery: 10 * time.Millisecond,
		},
		{
			Name:       "fanout-reads",
			Partitions: 2048, Levels: 256, Preload: 200000, Rate: 20000,
			Queries:  []QuerySpec{vwap},
			PushSubs: 8, PullReaders: 2, PullEvery: 20 * time.Millisecond,
			ReadersInSaturate: true,
		},
	}
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// scaled shrinks a workload for the smoke test: same shape, 1/div the rows
// and rate, so a pass takes a fraction of a second.
func (w Workload) scaled(div int) Workload {
	w.Preload = max(w.Preload/div, 64)
	w.Rate = max(w.Rate/div, 500)
	return w
}
