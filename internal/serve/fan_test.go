package serve

import (
	"math"
	"math/rand"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

func fanVWAP(c float64) *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(c, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// TestServeFanDifferential runs one service with K threshold probe lanes
// against K dedicated services over the same event stream and checks
// ProbeResult, ProbeResultGrouped and lane subscriptions are bit-identical
// per lane.
func TestServeFanDifferential(t *testing.T) {
	consts := []float64{0.3, 0.75, 0.9}
	lanes := make([]engine.ProbeSpec, len(consts))
	for i, c := range consts {
		lanes[i] = engine.ProbeSpec{Const: c}
	}
	opt := Options{Shards: 3, BatchSize: 8}
	fam, err := ForQuery(fanVWAP(consts[1]), []string{"broker"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fam.Close()
	if err := fam.SetProbes(lanes); err != nil {
		t.Fatalf("SetProbes: %v", err)
	}
	solo := make([]*Service, len(consts))
	for i, c := range consts {
		s, err := ForQuery(fanVWAP(c), []string{"broker"}, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		solo[i] = s
	}

	// A subscription per lane, attached before ingest.
	subs := make([]*Subscription, len(consts))
	for i := range lanes {
		sub, err := fam.Subscribe(SubOptions{Probe: &lanes[i], Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}

	rng := rand.New(rand.NewSource(3))
	var live []query.Tuple
	for batch := 0; batch < 30; batch++ {
		n := rng.Intn(12) + 1
		ev := make([]engine.Event, 0, n)
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				ev = append(ev, engine.Delete(live[j]))
				live = append(live[:j], live[j+1:]...)
			} else {
				tu := query.Tuple{
					"price":  float64(rng.Intn(40)) + 1,
					"volume": float64(rng.Intn(9)) + 1,
					"broker": float64(rng.Intn(5)),
				}
				live = append(live, tu)
				ev = append(ev, engine.Insert(tu))
			}
		}
		if err := fam.ApplyBatch(ev); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if err := s.ApplyBatch(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fam.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range consts {
			got, ok := fam.ProbeResult(lanes[i])
			if !ok {
				t.Fatalf("batch %d: lane %v not installed", batch, c)
			}
			want := solo[i].Result()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("batch %d lane %v: ProbeResult %v, solo %v", batch, c, got, want)
			}
			gg, ok := fam.ProbeResultGrouped(lanes[i])
			if !ok {
				t.Fatalf("batch %d: grouped lane %v not installed", batch, c)
			}
			wg := solo[i].ResultGrouped()
			if len(gg) != len(wg) {
				t.Fatalf("batch %d lane %v: %d groups, solo %d", batch, c, len(gg), len(wg))
			}
			for j := range gg {
				if math.Float64bits(gg[j].Value) != math.Float64bits(wg[j].Value) {
					t.Fatalf("batch %d lane %v group %v: %v, solo %v",
						batch, c, gg[j].Key, gg[j].Value, wg[j].Value)
				}
			}
		}
	}

	// Replay each lane subscription's frames up to the drained shard versions
	// (frames are pushed asynchronously, so catch up before comparing); the
	// view must equal the lane's grouped results.
	for i, c := range consts {
		view := NewView()
		syncView(t, view, subs[i], fam.ShardVersions())
		want, _ := fam.ProbeResultGrouped(lanes[i])
		if got := view.Grouped(); !groupsIdentical(got, want) {
			t.Fatalf("lane %v: replayed view != lane results:\n got %v\nwant %v", c, got, want)
		}
	}

	// Removing the member lanes disables their reads; the plan's own lane
	// (0.75) stays, and it is what Result reads.
	if err := fam.SetProbes(nil); err != nil {
		t.Fatalf("SetProbes(nil): %v", err)
	}
	if err := fam.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fam.ProbeResult(lanes[0]); ok {
		t.Fatalf("lane read succeeded after lanes removed")
	}
	if got, ok := fam.ProbeResult(fam.Spec()); !ok || got != fam.Result() || got != solo[1].Result() {
		t.Fatalf("plan lane after SetProbes(nil): %v (ok %v), Result %v, solo %v", got, ok, fam.Result(), solo[1].Result())
	}
}
