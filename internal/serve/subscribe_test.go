package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
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

// pendingSlot reads a coalescing slot's pending state under its lock: the
// number of marked partition slots, the mark words it holds, and the pinned
// snapshot (nil when nothing is pending).
func pendingSlot(ss *subShard) (marked, words int, snap *Snapshot) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, w := range ss.marks {
		marked += bits.OnesCount64(w)
	}
	return marked, len(ss.marks), ss.snap
}

// checkPendingBounded fails unless ss's pending state is bounded by the
// partitions its shard owns: at most one mark per partition, mark words for
// no more slots than the shard has (rounded up to a word), and the pinned
// snapshot, if any, the shard's newest publication.
func checkPendingBounded(t *testing.T, what string, svc *Service, ss *subShard) {
	t.Helper()
	parts := svc.Stats()[ss.shard].Partitions
	marked, words, snap := pendingSlot(ss)
	if marked > parts || words > (parts+63)/64 {
		t.Fatalf("%s: shard %d slot holds %d marks in %d words, shard has %d partitions",
			what, ss.shard, marked, words, parts)
	}
	if newest := svc.shards[ss.shard].snap.Load(); snap != nil && snap != newest {
		t.Fatalf("%s: shard %d slot pins snapshot version %d, newest is %d", what, ss.shard, snap.Version, newest.Version)
	}
}

// checkFrameOrdered fails unless fr carries at most one group per partition
// of its shard, in strictly increasing key order.
func checkFrameOrdered(t *testing.T, what string, svc *Service, fr DeltaFrame) {
	t.Helper()
	if parts := svc.Stats()[fr.Shard].Partitions; len(fr.Groups) > parts {
		t.Fatalf("%s: shard %d frame carries %d groups, shard has %d partitions", what, fr.Shard, len(fr.Groups), parts)
	}
	for i := 1; i < len(fr.Groups); i++ {
		if engine.CompareKeys(fr.Groups[i-1].Key, fr.Groups[i].Key) >= 0 {
			t.Fatalf("%s: shard %d frame out of key order at %d: %v then %v",
				what, fr.Shard, i, fr.Groups[i-1].Key, fr.Groups[i].Key)
		}
	}
}

// TestSubscriptionBackpressure stalls a Buffer-1 subscriber under sustained
// ingest on a shard owning 300 partitions (five mark words), then lets it
// drain: its pending state must stay bounded by the partition count, it must
// converge on the newest version (never a stale final state), its frame
// versions must be strictly increasing (never out-of-order) with groups in
// strictly increasing key order, and coalescing must have collapsed the
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
	events := symEvents(23, 5000, 300)
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
	if parts := svc.Stats()[0].Partitions; parts <= 256 {
		t.Fatalf("trace reached %d partitions, want more than 256", parts)
	}
	checkPendingBounded(t, "stalled", svc, sub.shards[0])

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
			// The seed frame of a shard that has not committed yet is at
			// version 0.
			if frames > 0 && fr.Version <= lastVer {
				t.Fatalf("out-of-order frame: version %d after %d", fr.Version, lastVer)
			}
			lastVer = fr.Version
			checkFrameOrdered(t, "drain", svc, fr)
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
// imposes on the ingest path: offering a publication to the pending slot
// sets marks in the slot's words and pins the new snapshot, allocating
// nothing per publication. The ceiling is per
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
// shards owning about 200 partitions each, so marks span several words.
// After every drained round it inspects their coalescing slots — pending
// state bounded by the shard's partition count however many publications
// were folded into it — and then catches each up: every frame it takes is
// in strictly increasing key order with one group per key, and the caught-up
// view equals its pull bit for bit.
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
	keys := [][]float64{{1}, {4}, {7}, {12}, {130}, {257}, {399}}
	wantKey := map[float64]bool{}
	for _, k := range keys {
		wantKey[k[0]] = true
	}
	filtered := func() []engine.GroupResult {
		var out []engine.GroupResult
		for _, g := range svc.ResultGrouped() {
			if wantKey[g.Key[0]] {
				out = append(out, g)
			}
		}
		return out
	}
	laneGrouped := func() []engine.GroupResult {
		out, ok := svc.ProbeResultGrouped(lane)
		if !ok {
			t.Fatal("probe lane not published")
		}
		return out
	}
	type lagging struct {
		sub  *Subscription
		view *View
		pull func() []engine.GroupResult
	}
	var subs []lagging
	for _, c := range []struct {
		opt  SubOptions
		pull func() []engine.GroupResult
	}{
		{SubOptions{Buffer: 1}, svc.ResultGrouped},
		{SubOptions{Buffer: 1, Probe: &lane}, laneGrouped},
		{SubOptions{Buffer: 1, Keys: keys}, filtered},
	} {
		sub, err := svc.Subscribe(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, lagging{sub, NewView(), c.pull})
	}
	events := symEvents(31, 6000, 400)
	for round := 0; round*600 < len(events); round++ {
		chunk := events[round*600 : min((round+1)*600, len(events))]
		for i := 0; i < len(chunk); i += 6 {
			if err := svc.ApplyBatch(chunk[i:min(i+6, len(chunk))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Drain(); err != nil {
			t.Fatal(err)
		}
		for si, l := range subs {
			what := fmt.Sprintf("round %d, subscriber %d", round, si)
			for _, ss := range l.sub.shards {
				checkPendingBounded(t, what, svc, ss)
			}
			target := svc.ShardVersions()
			deadline := time.After(10 * time.Second)
			for !viewCaughtUp(l.view, target) {
				select {
				case fr, ok := <-l.sub.Frames():
					if !ok {
						t.Fatalf("%s: frames closed early", what)
					}
					checkFrameOrdered(t, what, svc, fr)
					if err := l.view.Apply(fr); err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("%s: never caught up", what)
				}
			}
			if got, want := l.view.Grouped(), l.pull(); !groupsIdentical(got, want) {
				t.Fatalf("%s: caught-up view != pull:\n got %v\nwant %v", what, got, want)
			}
		}
	}
	for _, st := range svc.Stats() {
		if st.Partitions <= 128 {
			t.Fatalf("shard %d owns %d partitions, want more than 128", st.Shard, st.Partitions)
		}
	}
}

// TestPumpPanicEndsOnlyItsSubscription makes one subscription's frame build
// panic through the frameFault hook. That subscription must end with
// ErrSubscriptionFailed and a closed Frames channel, and its slots must
// leave the shard workers; the service must keep serving: every other
// subscriber's view, a subscription attached after the failure and every
// pull read stay bit-equal to an unfaulted service fed the same batches.
func TestPumpPanicEndsOnlyItsSubscription(t *testing.T) {
	var victim atomic.Pointer[Subscription]
	fault := func(sub *Subscription) {
		if sub == victim.Load() {
			panic("injected frame fault")
		}
	}
	frameFault.Store(&fault)
	t.Cleanup(func() { frameFault.Store(nil) })

	events := symEvents(23, 2400, 13)
	open := func() *Service {
		svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		return svc
	}
	svc, ref := open(), open()
	subscribe := func(svc *Service, opt SubOptions) *Subscription {
		sub, err := svc.Subscribe(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sub.Close)
		return sub
	}
	doomed := subscribe(svc, SubOptions{})
	other := subscribe(svc, SubOptions{})
	filtered := subscribe(svc, SubOptions{Keys: [][]float64{{2}, {7}}})
	refSub := subscribe(ref, SubOptions{})
	refFiltered := subscribe(ref, SubOptions{Keys: [][]float64{{2}, {7}}})
	views := map[*Subscription]*View{doomed: NewView(), other: NewView(), filtered: NewView(), refSub: NewView(), refFiltered: NewView()}

	feed := func(batch []engine.Event) {
		t.Helper()
		for _, s := range []*Service{svc, ref} {
			if err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, subs ...*Subscription) {
		t.Helper()
		if got, want := svc.Result(), ref.Result(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Result %v, unfaulted service %v", what, got, want)
		}
		want := ref.ResultGrouped()
		if got := svc.ResultGrouped(); !groupsIdentical(got, want) {
			t.Fatalf("%s: ResultGrouped differs from the unfaulted service:\n got %v\nwant %v", what, got, want)
		}
		syncView(t, views[refSub], refSub, ref.ShardVersions())
		syncView(t, views[refFiltered], refFiltered, ref.ShardVersions())
		for _, sub := range subs {
			syncView(t, views[sub], sub, svc.ShardVersions())
			twin := refSub
			if sub == filtered {
				twin = refFiltered
			}
			if got, want := views[sub].Grouped(), views[twin].Grouped(); !groupsIdentical(got, want) {
				t.Fatalf("%s: subscriber view differs from the unfaulted one:\n got %v\nwant %v", what, got, want)
			}
		}
	}

	feed(events[:800])
	check("before the fault", doomed, other, filtered)

	victim.Store(doomed)
	feed(events[800:1200])
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-doomed.Frames():
		case <-deadline:
			t.Fatal("the faulted subscription's Frames channel did not close")
		}
	}
	if err := doomed.Err(); !errors.Is(err, ErrSubscriptionFailed) {
		t.Fatalf("faulted subscription Err() = %v, want ErrSubscriptionFailed", err)
	}
	if err := other.Err(); err != nil {
		t.Fatalf("unfaulted subscription Err() = %v", err)
	}

	late := subscribe(svc, SubOptions{})
	views[late] = NewView()
	feed(events[1200:])
	check("after the fault", other, filtered, late)
	if n := svc.Subscribers(); n != 3 {
		t.Fatalf("%d live subscribers after the fault, want 3", n)
	}
	for i := range svc.shards {
		var slots int
		if err := svc.control(i, func(ws *workerState) error { slots = len(ws.subs); return nil }); err != nil {
			t.Fatal(err)
		}
		if slots != 3 {
			t.Fatalf("shard %d holds %d subscriber slots after the fault, want 3", i, slots)
		}
	}
}
