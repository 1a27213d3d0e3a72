package catalog

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

// liveSub is one open subscription and the View its frames fold into.
type liveSub struct {
	id   QueryID
	sub  *serve.Subscription
	view *serve.View
}

// subscribeView attaches a subscription to id and returns it with an empty
// View.
func subscribeView(t testing.TB, cat *Service, id QueryID) *liveSub {
	t.Helper()
	sub, err := cat.Subscribe(id, serve.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &liveSub{id: id, sub: sub, view: serve.NewView()}
}

// catchUp folds frames into the view until every shard has reached the
// query's current published version. Call it after DrainAll: the versions
// are then final, so the frames carrying them are already on their way.
func (ls *liveSub) catchUp(cat *Service) error {
	want, err := cat.ShardVersions(ls.id)
	if err != nil {
		return err
	}
	deadline := time.After(10 * time.Second)
	for {
		have := make(map[int]uint64)
		for _, sv := range ls.view.Versions() {
			have[sv.Shard] = sv.Version
		}
		current := true
		for _, sv := range want {
			if have[sv.Shard] < sv.Version {
				current = false
			}
		}
		if current {
			return nil
		}
		select {
		case fr, ok := <-ls.sub.Frames():
			if !ok {
				return fmt.Errorf("query %d: subscription closed before catching up", ls.id)
			}
			if err := ls.view.Apply(fr); err != nil {
				return err
			}
		case <-deadline:
			return fmt.Errorf("query %d: view at %v, service at %v", ls.id, ls.view.Versions(), want)
		}
	}
}

// checkReaders holds every live subscription and every id's scalar read to
// the query's grouped read, bit for bit: each subscriber's View equals
// ResultGrouped, and Result equals the sum of that query's groups (the
// traces are integer-valued, so the sum is exact in any order).
func checkReaders(cat *Service, ids []QueryID, subs []*liveSub) error {
	if err := cat.DrainAll(); err != nil {
		return err
	}
	for _, ls := range subs {
		if err := ls.catchUp(cat); err != nil {
			return err
		}
		want, err := cat.ResultGrouped(ls.id)
		if err != nil {
			return err
		}
		if got := ls.view.Grouped(); !groupBitsEqual(got, want) {
			return fmt.Errorf("query %d: subscriber view %v, ResultGrouped %v", ls.id, got, want)
		}
	}
	for _, id := range ids {
		g, err := cat.ResultGrouped(id)
		if err != nil {
			return err
		}
		var sum float64
		for _, gr := range g {
			sum += gr.Value
		}
		r, err := cat.Result(id)
		if err != nil {
			return err
		}
		if math.Float64bits(r) != math.Float64bits(sum) {
			return fmt.Errorf("query %d: Result %v, sum of its %d groups %v", id, r, len(g), sum)
		}
	}
	return nil
}

// groupBitsEqual is equality of grouped results by key and value bits.
func groupBitsEqual(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if engine.CompareKeys(a[i].Key, b[i].Key) != 0 ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestSubscriberSurvivesLaneChurn pins that a reader's path depends only on
// its own query: a founder's subscription must keep converging on its
// ResultGrouped while a threshold variant joins its set, leaves it, and
// registers again — and so must the variant's, when the founder is the one
// that leaves. Every DrainAll is followed by the full reader check.
func TestSubscriberSurvivesLaneChurn(t *testing.T) {
	for _, founderLeaves := range []bool{false, true} {
		t.Run(fmt.Sprintf("founderLeaves=%v", founderLeaves), func(t *testing.T) {
			cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			events := catEvents(11, 600, 4)
			ingest := func(part int) {
				t.Helper()
				applyBatches(t, events[part*100:(part+1)*100], 25, cat.ApplyBatch)
			}
			register := func(sql string) QueryID {
				t.Helper()
				id, _, err := cat.Register(sql)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			check := func(step string, ids []QueryID, subs ...*liveSub) {
				t.Helper()
				if err := checkReaders(cat, ids, subs); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}

			founder := register(sqlVWAP)
			ingest(0)
			variant := register(sqlVWAP90)
			fs, vs := subscribeView(t, cat, founder), subscribeView(t, cat, variant)
			defer func() { fs.sub.Close(); vs.sub.Close() }()
			check("both registered", []QueryID{founder, variant}, fs, vs)
			ingest(1)
			check("both ingesting", []QueryID{founder, variant}, fs, vs)

			gone, stay, staySub := variant, founder, fs
			if founderLeaves {
				gone, stay, staySub = founder, variant, vs
			}
			if err := cat.Unregister(gone); err != nil {
				t.Fatal(err)
			}
			check("after unregister", []QueryID{stay}, staySub)
			ingest(2)
			check("ingest after unregister", []QueryID{stay}, staySub)

			// The departed query registers again, after its lane (or the
			// founder's) was torn down.
			again := sqlVWAP90
			if founderLeaves {
				again = sqlVWAP
			}
			back := register(again)
			bs := subscribeView(t, cat, back)
			defer bs.sub.Close()
			check("re-registered", []QueryID{stay, back}, staySub, bs)
			ingest(3)
			check("ingest after re-register", []QueryID{stay, back}, staySub, bs)
			if err := cat.Unregister(back); err != nil {
				t.Fatal(err)
			}
			ingest(4)
			check("second unregister", []QueryID{stay}, staySub)
		})
	}
}
