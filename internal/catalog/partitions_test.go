package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
)

// TestLateSetReverseIDOrder pins slot creation to first-occurrence order on
// the id path. The catalog's partition dictionary numbers keys in the order
// the catalog first saw them; a set founded later sees the keys in the
// reverse of that order, so its shard workers must create their slots in
// the order rows arrive, not in id order. Lane totals are slot-order sums,
// and the trace's inexact values make their bits depend on that order: the
// late set's Result, ResultGrouped and subscriber View must be bit-identical
// to a dedicated serve.ForQuery fed the same events from its own dictionary.
func TestLateSetReverseIDOrder(t *testing.T) {
	const parts = 24
	opt := Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16}
	cat, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if _, _, err := cat.Register(sqlVWAP); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	event := func(sym int) engine.Event {
		return engine.Insert(query.Tuple{"sym": float64(sym),
			"price": 1 + rng.Float64()*20, "volume": 0.1 + rng.Float64()*3})
	}
	var early []engine.Event
	for sym := 0; sym < parts; sym++ {
		early = append(early, event(sym))
	}
	applyBatches(t, early, 16, cat.ApplyBatch)

	late, _, err := cat.Register(vwapVariant(1))
	if err != nil {
		t.Fatal(err)
	}
	sub := subscribeView(t, cat, late)
	defer sub.sub.Close()
	ded, err := serve.ForQuery(mustParse(t, vwapVariant(1)), opt.PartitionBy, opt.serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ded.Close()

	var events []engine.Event
	for sym := parts - 1; sym >= 0; sym-- {
		events = append(events, event(sym))
	}
	for i := 0; i < 400; i++ {
		events = append(events, event(rng.Intn(parts)))
	}
	// Every batch's totals are compared: one comparison can agree by luck
	// of rounding, a whole trace of them does not.
	applyBatches(t, events, 16, func(b []engine.Event) error {
		if err := cat.ApplyBatch(b); err != nil {
			return err
		}
		if err := ded.ApplyBatch(b); err != nil {
			return err
		}
		if err := cat.DrainAll(); err != nil {
			return err
		}
		if err := ded.Drain(); err != nil {
			return err
		}
		got, err := cat.Result(late)
		if err != nil {
			return err
		}
		if want := ded.Result(); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("late set's Result %v (bits %x), dedicated service %v (bits %x)",
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return nil
	})
	grouped, err := cat.ResultGrouped(late)
	if err != nil {
		t.Fatal(err)
	}
	want := ded.ResultGrouped()
	if len(want) != parts || !groupBitsEqual(grouped, want) {
		t.Fatalf("late set's ResultGrouped %v, dedicated service %v", grouped, want)
	}
	if err := sub.catchUp(cat); err != nil {
		t.Fatal(err)
	}
	if view := sub.view.Grouped(); !groupBitsEqual(view, want) {
		t.Fatalf("late set's subscriber View %v, dedicated service %v", view, want)
	}
}

// TestCatalogNormalizesPartitionKeys pins that the catalog's dictionary
// normalizes keys before resolving them: -0 and +0 are one partition, and so
// are two NaN payloads, on every shard count — each pair lands in one group
// holding what a trace spelling both keys canonically produces.
func TestCatalogNormalizesPartitionKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	trace := func(zeroA, zeroB, nanA, nanB float64) []engine.Event {
		var out []engine.Event
		for i, sym := range []float64{zeroA, nanA, zeroB, nanB, zeroB, zeroA, nanB, nanA} {
			out = append(out, engine.Insert(query.Tuple{"sym": sym, "price": float64(i%3 + 1), "volume": float64(i%4 + 1)}))
		}
		return out
	}
	for _, shards := range []int{1, 2, 3} {
		run := func(events []engine.Event) ([]engine.GroupResult, int) {
			cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			id, _, err := cat.Register(sqlVWAP)
			if err != nil {
				t.Fatal(err)
			}
			applyBatches(t, events, 3, cat.ApplyBatch)
			if err := cat.DrainAll(); err != nil {
				t.Fatal(err)
			}
			g, err := cat.ResultGrouped(id)
			if err != nil {
				t.Fatal(err)
			}
			st, err := cat.ShardStats(id)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, s := range st {
				n += s.Partitions
			}
			return g, n
		}
		got, n := run(trace(negZero, 0, nan1, nan2))
		want, _ := run(trace(0, 0, math.NaN(), math.NaN()))
		if n != 2 || !groupBitsEqual(got, want) {
			t.Fatalf("%d shards: %d partitions, groups %v; want 2 partitions, groups %v", shards, n, got, want)
		}
		if math.Float64bits(got[0].Key[0]) != 0 || math.Float64bits(got[1].Key[0]) != math.Float64bits(math.NaN()) {
			t.Fatalf("%d shards: keys %v %v are not the canonical +0 and NaN", shards, got[0].Key, got[1].Key)
		}
	}
}
