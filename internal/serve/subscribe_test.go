package serve

import (
	"math"
	"testing"
	"time"

	"rpai/internal/engine"
)

// groupsIdentical compares grouped results bit-for-bit (Float64bits on keys
// and values) — the equality standard of the differential replication suite.
func groupsIdentical(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for k := range a[i].Key {
			if math.Float64bits(a[i].Key[k]) != math.Float64bits(b[i].Key[k]) {
				return false
			}
		}
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// viewCaughtUp reports whether the view has reached every target shard
// version.
func viewCaughtUp(v *View, target []ShardVersion) bool {
	have := map[int]uint64{}
	for _, sv := range v.Versions() {
		have[sv.Shard] = sv.Version
	}
	for _, sv := range target {
		if have[sv.Shard] < sv.Version {
			return false
		}
	}
	return true
}

// syncView applies frames until the view reaches target, failing on a gap or
// a timeout.
func syncView(t *testing.T, v *View, sub *Subscription, target []ShardVersion) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !viewCaughtUp(v, target) {
		select {
		case fr, ok := <-sub.Frames():
			if !ok {
				t.Fatal("frames channel closed before the view caught up")
			}
			if err := v.Apply(fr); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("timed out waiting for delta frames")
		}
	}
}

// TestSubscriptionReconstructs is the subscription half of the differential
// proof: a subscriber attached before (and another attached mid-stream
// through) a random insert/delete trace must reconstruct the service's
// grouped results bit-identically from its delta frames alone.
func TestSubscriptionReconstructs(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 3000, 17)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 16, QueueLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	early, err := svc.Subscribe(SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	earlyView := NewView()

	var late *Subscription
	lateView := NewView()
	for i := 0; i < len(events); i += 100 {
		end := i + 100
		if end > len(events) {
			end = len(events)
		}
		if err := svc.ApplyBatch(events[i:end]); err != nil {
			t.Fatal(err)
		}
		if i == 1500 {
			// Mid-stream attach: the seed Full frame must make the late view
			// equivalent to the early one without any history.
			if late, err = svc.Subscribe(SubOptions{Buffer: 4}); err != nil {
				t.Fatal(err)
			}
			defer late.Close()
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	target := svc.ShardVersions()
	want := svc.ResultGrouped()

	syncView(t, earlyView, early, target)
	if got := earlyView.Grouped(); !groupsIdentical(got, want) {
		t.Fatalf("early subscriber view diverged from pull:\n got %v\nwant %v", got, want)
	}
	syncView(t, lateView, late, target)
	if got := lateView.Grouped(); !groupsIdentical(got, want) {
		t.Fatalf("late subscriber view diverged from pull:\n got %v\nwant %v", got, want)
	}
}

// TestSubscriptionBackpressure stalls a Buffer-1 subscriber under sustained
// ingest, then lets it drain: it must converge on the newest version (never a
// stale final state), its per-shard frame versions must be strictly
// increasing (never out-of-order), and coalescing must have collapsed the
// backlog into far fewer frames than publications.
func TestSubscriptionBackpressure(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 1, BatchSize: 4, QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sub, err := svc.Subscribe(SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Stall the subscriber: nobody reads sub.Frames while ingest runs.
	events := symEvents(23, 5000, 9)
	for i := 0; i < len(events); i += 8 {
		end := i + 8
		if end > len(events) {
			end = len(events)
		}
		if err := svc.ApplyBatch(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	flushed := svc.Stats()[0].Flushed

	// Bounded memory: the pending slot coalesces by key, so it can never hold
	// more groups than the shard has partitions.
	ss := sub.shards[0]
	ss.mu.Lock()
	pending := len(ss.pend)
	ss.mu.Unlock()
	if parts := svc.Stats()[0].Partitions; pending > parts {
		t.Fatalf("pending slot holds %d groups, shard has %d partitions", pending, parts)
	}

	// Drain: versions strictly increasing, convergence on the newest state.
	view := NewView()
	var lastVer uint64
	frames := 0
	deadline := time.After(10 * time.Second)
	target := svc.ShardVersions()
	for !viewCaughtUp(view, target) {
		select {
		case fr, ok := <-sub.Frames():
			if !ok {
				t.Fatal("frames closed early")
			}
			if fr.Version <= lastVer {
				t.Fatalf("out-of-order frame: version %d after %d", fr.Version, lastVer)
			}
			lastVer = fr.Version
			if err := view.Apply(fr); err != nil {
				t.Fatal(err)
			}
			frames++
		case <-deadline:
			t.Fatal("stalled subscriber never observed the newest version")
		}
	}
	if got, want := view.Grouped(), svc.ResultGrouped(); !groupsIdentical(got, want) {
		t.Fatalf("stalled subscriber converged on the wrong state")
	}
	if uint64(frames) >= flushed {
		t.Fatalf("no coalescing: %d frames for %d publications", frames, flushed)
	}
}

// TestVersionMonotonicPulls is the regression for the latent gap this layer
// closes: no shard's version may decrease between two successive
// ShardVersions pulls, even while every shard is publishing concurrently.
func TestVersionMonotonicPulls(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		events := symEvents(5, 20000, 31)
		for i := range events {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.ApplyBatch(events[i : i+1]); err != nil {
				return
			}
		}
	}()
	last := svc.ShardVersions()
	for i := 0; i < 50000; i++ {
		cur := svc.ShardVersions()
		for j, sv := range cur {
			if sv.Version < last[j].Version {
				t.Fatalf("shard %d version went backwards: %d after %d", sv.Shard, sv.Version, last[j].Version)
			}
		}
		last = cur
	}
	close(stop)
	<-done
}

// TestDrainVersionBarrier checks Drain is a version barrier: every shard's
// version after Drain is strictly above its pre-write version, and a reader
// that observes the post-Drain versions observes all acknowledged writes.
func TestDrainVersionBarrier(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	events := symEvents(3, 500, 7)
	want := serialReference(t, q, events)

	v0 := svc.ShardVersions()
	applyEach(t, svc, events)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	v1 := svc.ShardVersions()
	for i := range v1 {
		if v1[i].Version <= v0[i].Version {
			t.Fatalf("Drain did not advance shard %d's version: %d -> %d", i, v0[i].Version, v1[i].Version)
		}
	}
	groups := svc.ResultGrouped()
	if len(groups) != len(want) {
		t.Fatalf("post-Drain read: %d groups, want %d", len(groups), len(want))
	}
	for _, g := range groups {
		if want[g.Key[0]] != g.Value {
			t.Fatalf("post-Drain read: group %v = %v, want %v", g.Key, g.Value, want[g.Key[0]])
		}
	}
	// Quiesced: a second pull observes unchanged (never smaller) versions.
	for i, sv := range svc.ShardVersions() {
		if sv.Version < v1[i].Version {
			t.Fatalf("shard %d version decreased across pulls: %d after %d", i, sv.Version, v1[i].Version)
		}
	}
}

// TestSubscribeFilter restricts a subscription to two partition keys and
// checks frames carry only those groups, matching a filtered pull.
func TestSubscribeFilter(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	keys := [][]float64{{2}, {5}}
	sub, err := svc.Subscribe(SubOptions{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	events := symEvents(41, 2000, 11)
	if err := svc.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	view := NewView()
	syncView(t, view, sub, svc.ShardVersions())

	var want []engine.GroupResult
	for _, g := range svc.ResultGrouped() {
		if g.Key[0] == 2 || g.Key[0] == 5 {
			want = append(want, g)
		}
	}
	if got := view.Grouped(); !groupsIdentical(got, want) {
		t.Fatalf("filtered view %v, want %v", got, want)
	}
}

// TestSubscribeResume exercises the three resume outcomes: a current reader
// resumes without a reseed, a lagging reader is reseeded with a Full frame,
// and a mismatched epoch always reseeds.
func TestSubscribeResume(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events := symEvents(9, 1000, 5)
	if err := svc.ApplyBatch(events[:600]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	view := NewView()
	syncView(t, view, sub, svc.ShardVersions())
	sub.Close()

	// Current resume: no writes happened, so the first frame after new writes
	// must be incremental and apply onto the existing view without a gap.
	sub2, err := svc.Subscribe(SubOptions{Resume: view.Versions(), ResumeEpoch: svc.Epoch()})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyBatch(events[600:800]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	sawFull := false
	deadline := time.After(10 * time.Second)
	target := svc.ShardVersions()
	for !viewCaughtUp(view, target) {
		select {
		case fr := <-sub2.Frames():
			sawFull = sawFull || fr.Full
			if err := view.Apply(fr); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("resumed subscriber stalled")
		}
	}
	if sawFull {
		t.Fatal("current resume was reseeded with a Full frame")
	}
	if got, want := view.Grouped(), svc.ResultGrouped(); !groupsIdentical(got, want) {
		t.Fatal("resumed view diverged")
	}
	sub2.Close()

	// Lagging resume: writes happened since the resumed versions, so the
	// subscription must reseed with a Full frame.
	if err := svc.ApplyBatch(events[800:]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	sub3, err := svc.Subscribe(SubOptions{Resume: view.Versions(), ResumeEpoch: svc.Epoch()})
	if err != nil {
		t.Fatal(err)
	}
	if fr := <-sub3.Frames(); !fr.Full {
		t.Fatal("lagging resume did not reseed with a Full frame")
	}
	sub3.Close()

	// Epoch mismatch: always a Full reseed, even at matching versions.
	sub4, err := svc.Subscribe(SubOptions{Resume: svc.ShardVersions(), ResumeEpoch: svc.Epoch() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if fr := <-sub4.Frames(); !fr.Full {
		t.Fatal("epoch-mismatched resume did not reseed with a Full frame")
	}
	sub4.Close()
}

// TestSubscribeAllocGuard bounds the steady-state cost a stalled subscriber
// imposes on the ingest path: merging a publication into the pending slot
// must reuse the slot's map, not allocate per publication. The ceiling is per
// 64-event batch over four partitions, in the style of
// TestAllocGuardApplyBatch.
func TestSubscribeAllocGuard(t *testing.T) {
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	batch := make([]engine.Event, 64)
	for i := range batch {
		batch[i] = allocTuple(float64(i%4), float64(i%8+1))
	}
	for i := 0; i < 8; i++ {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	const ceiling = 24.0
	if got := testing.AllocsPerRun(200, func() {
		if err := svc.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); got > ceiling {
		t.Errorf("ApplyBatch with a stalled subscriber allocates %.1f per batch, ceiling %.0f", got, ceiling)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeCloseRace races Subscribe against the service's Close, many
// times over: every Subscribe must either fail or hand back a subscription
// whose Frames channel closes — one that slipped in after Close collected
// the live set would leak its pump and never close.
func TestSubscribeCloseRace(t *testing.T) {
	const pairs = 2000
	for i := 0; i < pairs; i++ {
		svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan *Subscription, 1)
		go func() {
			sub, err := svc.Subscribe(SubOptions{})
			if err != nil {
				sub = nil
			}
			got <- sub
		}()
		svc.Close()
		sub := <-got
		if sub == nil {
			continue
		}
		deadline := time.After(10 * time.Second)
	frames:
		for {
			select {
			case _, ok := <-sub.Frames():
				if !ok {
					break frames
				}
			case <-deadline:
				t.Fatalf("pair %d: Subscribe succeeded but Close never finalized it", i)
			}
		}
	}
}

// TestLaggingSlotPendingBounded stalls three Buffer-1 subscribers — the base
// results, a probe lane and a key filter — under sustained ingest on two
// shards and inspects their coalescing slots after every drained round: a
// slot's pending run stays in strictly increasing key order (one group per
// key) and never holds more groups than its shard has partitions, however
// many publications were merged into it.
func TestLaggingSlotPendingBounded(t *testing.T) {
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 2, BatchSize: 8, QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	lane := engine.ProbeSpec{Const: 0.5}
	if err := svc.SetProbes([]engine.ProbeSpec{lane}); err != nil {
		t.Fatal(err)
	}
	var subs []*Subscription
	for _, opt := range []SubOptions{
		{Buffer: 1},
		{Buffer: 1, Probe: &lane},
		{Buffer: 1, Keys: [][]float64{{1}, {4}, {7}, {12}}},
	} {
		sub, err := svc.Subscribe(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	events := symEvents(31, 6000, 23)
	for round := 0; round*300 < len(events); round++ {
		chunk := events[round*300 : min((round+1)*300, len(events))]
		for i := 0; i < len(chunk); i += 6 {
			if err := svc.ApplyBatch(chunk[i:min(i+6, len(chunk))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
		stats := svc.Stats()
		for si, sub := range subs {
			for _, ss := range sub.shards {
				ss.mu.Lock()
				pend := append([]engine.GroupResult(nil), ss.pend...)
				ss.mu.Unlock()
				if parts := stats[ss.shard].Partitions; len(pend) > parts {
					t.Fatalf("round %d, subscriber %d, shard %d: pending run holds %d groups, shard has %d partitions",
						round, si, ss.shard, len(pend), parts)
				}
				for i := 1; i < len(pend); i++ {
					if engine.CompareKeys(pend[i-1].Key, pend[i].Key) >= 0 {
						t.Fatalf("round %d, subscriber %d, shard %d: pending run out of key order at %d: %v then %v",
							round, si, ss.shard, i, pend[i-1].Key, pend[i].Key)
					}
				}
			}
		}
	}
}
