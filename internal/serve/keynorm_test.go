package serve

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestKeyNormalization pins the fix for -0/+0 and NaN-payload partition keys:
// all bit patterns of one logical key must hash to the same shard and encode
// to the same partition. The pair of events carries the two bit patterns in
// the partition column of two identical VWAP inserts (price 1, volume 1): one
// partition holding both reads 2, two partitions of one event each would read
// 1 apiece.
func TestKeyNormalization(t *testing.T) {
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	cases := []struct {
		name string
		a, b float64
	}{
		{"neg-zero vs pos-zero", math.Copysign(0, -1), 0},
		{"pos-zero vs neg-zero", 0, math.Copysign(0, -1)},
		{"canonical NaN vs payload NaN", math.NaN(), nan(0x7ff8000000000002)},
		{"two payload NaNs", nan(0x7ff8000000000042), nan(0xfff8000000000017)},
		{"signalling vs quiet NaN", nan(0x7ff0000000000001), math.NaN()},
		{"plain key control", 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Many shards so a hash mismatch almost surely splits the pair.
			svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 16, BatchSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for _, sym := range []float64{tc.a, tc.b} {
				ev := engine.Insert(query.Tuple{"sym": sym, "price": 1, "volume": 1})
				if err := svc.ApplyBatch([]engine.Event{ev}); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			groups := svc.ResultGrouped()
			if len(groups) != 1 {
				t.Fatalf("keys %x/%x split into %d partitions, want 1",
					math.Float64bits(tc.a), math.Float64bits(tc.b), len(groups))
			}
			if groups[0].Value != 2 {
				t.Fatalf("partition result = %v, want 2", groups[0].Value)
			}
			var parts int
			for _, st := range svc.Stats() {
				parts += st.Partitions
			}
			if parts != 1 {
				t.Fatalf("stats report %d partitions, want 1", parts)
			}
		})
	}
}

// TestNormalizeValsTable pins the normalization function itself, bit for bit.
func TestNormalizeValsTable(t *testing.T) {
	canonNaN := math.Float64bits(math.NaN())
	cases := []struct {
		name string
		in   uint64
		want uint64
	}{
		{"neg zero", 0x8000000000000000, 0},
		{"pos zero", 0, 0},
		{"payload NaN", 0x7ff8000000000002, canonNaN},
		{"negative NaN", 0xfff8000000000099, canonNaN},
		{"one", math.Float64bits(1), math.Float64bits(1)},
		{"neg inf", math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(-1))},
	}
	for _, tc := range cases {
		got := normalizeVals([]float64{math.Float64frombits(tc.in)})
		if bits := math.Float64bits(got[0]); bits != tc.want {
			t.Errorf("%s: normalize(%#x) = %#x, want %#x", tc.name, tc.in, bits, tc.want)
		}
	}
}

// TestGroupedOrderNaNKey is the regression for a NaN partition key breaking
// grouped order: with `<` as the comparator a NaN key is incomparable to
// every number, so the sort's output depended on the input permutation and
// therefore on the shard count. Under engine.CompareKeys NaN sorts after
// every number, and every grouped surface — the pull, a lane pull and a
// subscriber's reconstructed view — returns the same order at any shard
// count.
func TestGroupedOrderNaNKey(t *testing.T) {
	syms := []float64{2, math.NaN(), 1, 3, 0, 5, 4}
	want := []float64{0, 1, 2, 3, 4, 5, math.NaN()}
	spec := engine.ProbeSpec{Const: 0.75}
	check := func(t *testing.T, what string, got []engine.GroupResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
		}
		for i, g := range got {
			if math.Float64bits(g.Key[0]) != math.Float64bits(want[i]) {
				keys := make([]float64, len(got))
				for j := range got {
					keys[j] = got[j].Key[0]
				}
				t.Fatalf("%s: keys %v, want %v", what, keys, want)
			}
		}
	}
	for shards := 1; shards <= 16; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if err := svc.SetProbes([]engine.ProbeSpec{spec}); err != nil {
				t.Fatal(err)
			}
			sub, err := svc.Subscribe(SubOptions{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			for _, sym := range syms {
				if err := svc.ApplyBatch([]engine.Event{engine.Insert(query.Tuple{"sym": sym, "price": 1, "volume": 1})}); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
			check(t, "ResultGrouped", svc.ResultGrouped())
			lane, ok := svc.ProbeResultGrouped(spec)
			if !ok {
				t.Fatal("lane not published")
			}
			check(t, "ProbeResultGrouped", lane)
			view := NewView()
			syncView(t, view, sub, svc.ShardVersions())
			check(t, "View.Grouped", view.Grouped())
		})
	}
}

// TestEnqueueWaitAccounting wedges a one-shard service's worker and checks
// the backpressure surface: the queue depth never exceeds QueueLen, an
// ApplyBatch blocked on the full queue shows up in EnqueueWaitNS once a slot
// frees, and every queued event is applied after the release.
func TestEnqueueWaitAccounting(t *testing.T) {
	const queueLen = 4
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1, QueueLen: queueLen, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gate, wedged := make(chan struct{}), make(chan struct{})
	go svc.control(0, func(*workerState) error {
		close(wedged)
		<-gate
		return nil
	})
	<-wedged

	ev := []engine.Event{engine.Insert(query.Tuple{"sym": 1, "price": 1, "volume": 1})}
	for i := 0; i < queueLen; i++ {
		if err := svc.ApplyBatch(ev); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats()[0]; st.QueueDepth != queueLen || st.EnqueueWaitNS != 0 {
		t.Fatalf("wedged shard: queue depth %d, wait %dns; want %d, 0", st.QueueDepth, st.EnqueueWaitNS, queueLen)
	}
	// The next batch finds the queue full and blocks until the worker is
	// released; the release fires from a timer so the wait is measurable.
	time.AfterFunc(20*time.Millisecond, func() { close(gate) })
	if err := svc.ApplyBatch(ev); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats()[0]; st.QueueDepth > queueLen {
		t.Fatalf("queue depth %d exceeds QueueLen %d", st.QueueDepth, queueLen)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()[0]
	if st.EnqueueWaitNS == 0 {
		t.Fatal("EnqueueWaitNS = 0 after a blocked ApplyBatch")
	}
	if st.Applied != queueLen+1 {
		t.Fatalf("Applied = %d, want %d", st.Applied, queueLen+1)
	}
}
