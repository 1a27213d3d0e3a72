package engine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rpai/internal/query"
)

// FuzzEngineDifferential is the engine-level differential fuzzer: the input
// byte stream selects a query in the supported fragment plus an insert/delete
// event trace, and every executor the engine offers for that query — the
// naive re-evaluation oracle, the general algorithm, and the planner's pick
// (the range-shift or PAI executor when the section 4.3 pattern applies) —
// must agree on the result after every event. It promotes the property tested by
// randomquery_test.go into a native fuzz target so the corpus can grow
// adversarial traces; the seed corpus covers the paper's worked examples
// (the Figure 3 PAI point-move shape via EQ1, the Figure 4/5 RPAI range-shift
// shape via VWAP, and the nested NQ1/NQ2 shapes).
//
// Run with `go test -fuzz FuzzEngineDifferential ./internal/engine`; the
// committed corpus under testdata/fuzz executes under plain `go test`.
func FuzzEngineDifferential(f *testing.F) {
	// One seed per query shape, each with a short mixed insert/delete trace.
	trace := []byte{
		1, 5, 9, 1, 5, 3, 1, 17, 28, 1, 5, 9, 0, 0, 1, 1, 200, 100,
		1, 39, 29, 0, 0, 0, 1, 5, 9, 1, 12, 12, 0, 0, 2, 1, 1, 1,
	}
	for shape := byte(0); shape < 11; shape++ {
		f.Add(append([]byte{shape, 0, 0, 0, 0, 0, 0, 0, 77}, trace...))
	}
	f.Add(append([]byte{9, 0, 0, 0, 0, 0, 0, 1, 44}, trace...)) // another random-query seed
	f.Add(append([]byte{10, 0, 0, 0, 0, 0, 0, 0, 1}, trace...)) // a column predicate: volume > 0.1*SUM(volume)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		q := fuzzQuery(data[0], data[1:9])
		if q == nil || q.Validate() != nil {
			return
		}
		execs := allExecutors(t, q)
		naive, general := execs[0].(*NaiveExec), execs[1].(*GeneralExec)
		for i, e := range decodeFuzzTrace(data[9:], fuzzTraceLen(q)) {
			want := 0.0
			for j, ex := range execs {
				ex.Apply(e)
				got := ex.Result()
				if j == 0 {
					want = got
					continue
				}
				if !almostEqual(got, want) {
					t.Fatalf("query %q: %s diverged from naive at event %d: %v vs %v",
						q, ex.Strategy(), i+1, got, want)
				}
			}
			if len(q.GroupBy) > 0 && !groupsEqual(general.ResultGrouped(), naive.ResultGrouped()) {
				t.Fatalf("query %q: grouped results diverged at event %d:\n general %v\n naive   %v",
					q, i+1, general.ResultGrouped(), naive.ResultGrouped())
			}
		}
	})
}

// fuzzTraceLen bounds the trace a fuzz input decodes to. The naive oracle
// re-scans the live set per Result — quadratic in the live tuples, cubic for
// nested shapes — so nested shapes get half the events, which keeps every
// input under about a second (160 all-insert NQ2 events took 5.5 s, 80 take
// 0.3 s; the corpus seed slow-nq2-shape40 is that input).
func fuzzTraceLen(q *query.Query) int {
	if noNested(q) {
		return 160
	}
	return 80
}

// fuzzQuery maps the shape byte to a query: the named shapes of the engine
// tests first (so the seed corpus pins the paper's figures), then the random
// generators driven by the 8-byte seed.
func fuzzQuery(shape byte, seed []byte) *query.Query {
	switch shape % 11 {
	case 0:
		return vwapSpec()
	case 1:
		return eq1Spec()
	case 2:
		return countSpec()
	case 3:
		return avgSpec()
	case 4:
		return sq2Spec()
	case 5:
		return twoPredSpec()
	case 6:
		return nq1Spec()
	case 7:
		return nq2Spec()
	case 8:
		return groupedVWAPSpec()
	case 9:
		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(seed))))
		return randomQuery(rng)
	default:
		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(seed))))
		return randomEligibleQuery(rng)
	}
}
