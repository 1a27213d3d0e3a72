package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rpai/internal/query"
)

// The batched paths promise bit-identical state to event-at-a-time
// application, so these tests compare Results with math.Float64bits — not
// almostEqual. Any float reordering inside ApplyBatch shows up here.

type execPair struct {
	name string
	seq  Executor
	bat  BatchExecutor
}

// buildBatchPairs constructs (sequential, batched) twins of every executor
// the engine offers for q. Constructions outside their fragment are skipped;
// an executor without a native batched path is a test failure, since
// BatchExecutor is part of the engine contract.
func buildBatchPairs(t *testing.T, q *query.Query) []execPair {
	t.Helper()
	var pairs []execPair
	mk := func(name string, build func() (Executor, error)) {
		a, errA := build()
		b, errB := build()
		if errA != nil || errB != nil {
			return
		}
		bx, ok := b.(BatchExecutor)
		if !ok {
			t.Fatalf("%s executor %T does not implement BatchExecutor", name, b)
		}
		pairs = append(pairs, execPair{name, a, bx})
	}
	mk("naive", func() (Executor, error) { return NewNaive(q), nil })
	mk("general", func() (Executor, error) {
		g, err := NewGeneral(q)
		if err != nil {
			return nil, err
		}
		return g, nil
	})
	mk("planned", func() (Executor, error) { return New(q) })
	return pairs
}

// batchEvents is priceVolumeEvents plus the broker column, so grouped
// queries see several groups per trace.
func batchEvents(seed int64, n int, deleteRatio float64) []Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < deleteRatio {
			j := rng.Intn(len(live))
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"price":  float64(rng.Intn(40) + 1),
			"volume": float64(rng.Intn(30) + 1),
			"a":      float64(rng.Intn(10) + 1),
			"b":      float64(rng.Intn(8) + 1),
			"broker": float64(rng.Intn(5) + 1),
		}
		live = append(live, t)
		events = append(events, Insert(t))
	}
	return events
}

// splitBatches cuts events into consecutive batches of 1..max events.
func splitBatches(events []Event, rng *rand.Rand, max int) [][]Event {
	var out [][]Event
	for len(events) > 0 {
		n := 1 + rng.Intn(max)
		if n > len(events) {
			n = len(events)
		}
		out = append(out, events[:n:n])
		events = events[n:]
	}
	return out
}

func groupsBitIdentical(a, b []GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
		for j := range a[i].Key {
			if math.Float64bits(a[i].Key[j]) != math.Float64bits(b[i].Key[j]) {
				return false
			}
		}
	}
	return true
}

// checkBatchesBitIdentical drives the twins through the batches and requires
// bitwise-equal Results after every batch (and bitwise-equal grouped results
// when the query groups).
func checkBatchesBitIdentical(t *testing.T, q *query.Query, pairs []execPair, batches [][]Event) {
	t.Helper()
	grouped := len(q.GroupBy) > 0
	applied := 0
	for _, batch := range batches {
		applied += len(batch)
		for _, p := range pairs {
			for i := range batch {
				p.seq.Apply(batch[i])
			}
			p.bat.ApplyBatch(batch)
			got, want := p.bat.Result(), p.seq.Result()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %q: %s ApplyBatch diverged after %d events (batch of %d): %v vs %v",
					q, p.name, applied, len(batch), got, want)
			}
			if !grouped {
				continue
			}
			sg, sok := p.seq.(GroupedExecutor)
			bg, bok := p.bat.(GroupedExecutor)
			if sok && bok && !groupsBitIdentical(bg.ResultGrouped(), sg.ResultGrouped()) {
				t.Fatalf("query %q: %s grouped results diverged after %d events:\n batch %v\n seq   %v",
					q, p.name, applied, bg.ResultGrouped(), sg.ResultGrouped())
			}
		}
	}
}

func TestApplyBatchMatchesSequential(t *testing.T) {
	specs := []struct {
		name  string
		q     *query.Query
		n     int
		seeds int64
		maxes []int
	}{
		// The per-batch check pays the naive oracle's quadratic Result, so the
		// sweeps stay moderate; FuzzBatchEquivalence covers the long tail.
		{"vwap", vwapSpec(), 300, 2, []int{1, 16, 64}},
		{"eq1", eq1Spec(), 300, 2, []int{1, 16, 64}},
		{"sq2", sq2Spec(), 300, 2, []int{1, 16, 64}},
		{"count", countSpec(), 300, 2, []int{1, 16, 64}},
		{"avg", avgSpec(), 300, 2, []int{1, 16, 64}},
		{"twopred", twoPredSpec(), 300, 2, []int{1, 16, 64}},
		{"grouped", groupedVWAPSpec(), 300, 2, []int{1, 16, 64}},
		// The nested shapes pay the naive oracle's cubic Result per batch;
		// keep their traces short.
		{"nq1", nq1Spec(), 120, 2, []int{1, 16}},
		{"nq2", nq2Spec(), 120, 2, []int{1, 16}},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			for seed := int64(1); seed <= spec.seeds; seed++ {
				events := batchEvents(seed, spec.n, 0.25)
				rng := rand.New(rand.NewSource(seed * 101))
				for _, max := range spec.maxes {
					checkBatchesBitIdentical(t, spec.q, buildBatchPairs(t, spec.q),
						splitBatches(events, rng, max))
				}
			}
		})
	}
}

// TestApplyAllFallback pins the dispatch helper: batched when available,
// bit-identical loop otherwise.
func TestApplyAllFallback(t *testing.T) {
	q := vwapSpec()
	a, _ := New(q)
	b, _ := New(q)
	events := batchEvents(5, 200, 0.2)
	ApplyAll(a, events)
	for i := range events {
		b.Apply(events[i])
	}
	if math.Float64bits(a.Result()) != math.Float64bits(b.Result()) {
		t.Fatalf("ApplyAll diverged: %v vs %v", a.Result(), b.Result())
	}
}

// FuzzBatchEquivalence is the batching contract as a fuzz target: for a
// fuzzer-chosen query, event trace and batch partition, every strategy's
// ApplyBatch must leave bit-identical results to event-at-a-time Apply on a
// twin executor — the naive oracle, the general algorithm and the planner's
// pick (the range-shift or the PAI executor where the query allows). The input
// format matches FuzzEngineDifferential (shape byte, 8 seed bytes, trace
// bytes), and the batch boundaries are derived from the same bytes, so the
// corpora cross-pollinate.
//
// Run with `go test -fuzz FuzzBatchEquivalence ./internal/engine`; the
// committed corpus under testdata/fuzz executes under plain `go test`.
func FuzzBatchEquivalence(f *testing.F) {
	trace := []byte{
		1, 5, 9, 1, 5, 3, 1, 17, 28, 1, 5, 9, 0, 0, 1, 1, 200, 100,
		1, 39, 29, 0, 0, 0, 1, 5, 9, 1, 12, 12, 0, 0, 2, 1, 1, 1,
	}
	for shape := byte(0); shape < 11; shape++ {
		f.Add(append([]byte{shape, 0, 0, 0, 0, 0, 0, 0, 77}, trace...))
	}
	f.Add(append([]byte{10, 0, 0, 0, 0, 0, 0, 0, 1}, trace...)) // a column predicate: volume > 0.1*SUM(volume)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		q := fuzzQuery(data[0], data[1:9])
		if q == nil || q.Validate() != nil {
			return
		}
		pairs := buildBatchPairs(t, q)

		// Derive the event trace exactly like FuzzEngineDifferential.
		var live []query.Tuple
		var events []Event
		for i := 9; i+2 < len(data) && len(events) < 160; i += 3 {
			op, b1, b2 := data[i], data[i+1], data[i+2]
			if op%4 == 0 && len(live) > 0 {
				j := (int(b1)<<8 | int(b2)) % len(live)
				events = append(events, Delete(live[j]))
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			tup := query.Tuple{
				"price":  float64(b1%40 + 1),
				"volume": float64(b2%30 + 1),
				"a":      float64(b1%10 + 1),
				"b":      float64(b2%8 + 1),
				"broker": float64((b1^b2)%5 + 1),
			}
			live = append(live, tup)
			events = append(events, Insert(tup))
		}
		if len(events) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(data[1:9])) ^ int64(len(data))))
		checkBatchesBitIdentical(t, q, pairs, splitBatches(events, rng, 16))
	})
}
