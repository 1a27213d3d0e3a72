package serve

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"rpai/internal/engine"
)

// This file is the subscription side of the serving layer: instead of polling
// ResultGrouped, a reader registers a Subscription and is pushed one
// DeltaFrame per shard publication it has not yet seen. Frames coalesce under
// backpressure — a slow subscriber skips intermediate versions but always
// receives the newest one — and a frame stream replayed over the attach-time
// base reconstructs the primary's grouped results bit-identically at every
// delivered version (the property FuzzSubscriptionDeltas checks).
//
// Delta model: the served state is upsert-only (partitions are created, never
// deleted), so a frame is a set of (key, value) upserts. A frame with Full
// set carries every live group of its shard and is therefore a valid
// transition from any base — that one property powers attach seeding, resume
// after a version mismatch, and reseeding after a follower's rebuild, with no
// delta history kept.
//
// Publication cost is proportional to the batch: a commit marks each
// subscriber slot's pending partitions — one bit per dirty partition slot,
// no key comparison and no group copy — and points the slot at the
// commit's immutable Snapshot, which already holds every value of that
// version. The subscription's pump builds the frame from the newest offered
// snapshot, in key order through the snapshot's slot ranks, so a lagging
// slot holds at most one mark per partition and one pinned snapshot however
// many publications it absorbs, and a frame costs its marks plus one pass
// over the mark words.

// ErrSubscriptionFailed ends a subscription whose pump panicked while it
// built a frame: its Frames channel closes and Err returns this error with
// the panic value. Only that subscription ends; the service, its shard
// workers and every other subscription keep running.
var ErrSubscriptionFailed = errors.New("serve: subscription failed")

// frameFault, when set, is called with the subscription at the start of
// every frame build. Tests set it to make one subscription's build panic.
var frameFault atomic.Pointer[func(*Subscription)]

// ShardVersion names one shard's snapshot version, the unit subscription
// resume is expressed in.
type ShardVersion struct {
	Shard   int
	Version uint64
}

// DeltaFrame is one shard's published change set: applying Groups as upserts
// to a reader's state at version Base yields the shard's grouped results at
// version Version. When Full is set the frame instead replaces the reader's
// entire state for the shard (Base is 0) — the rebase frame sent at attach,
// on resume mismatch, and after a lane change.
type DeltaFrame struct {
	Shard   int
	Version uint64
	Base    uint64
	Full    bool
	Groups  []engine.GroupResult // sorted by key, immutable
}

// SubOptions parameterizes Subscribe.
type SubOptions struct {
	// Keys, when non-empty, restricts the subscription to those partition
	// keys; frames carry only matching groups. Empty subscribes to all.
	Keys [][]float64
	// Buffer is the delivery channel's capacity (default 16). A full channel
	// never drops the newest version: publications coalesce into one pending
	// frame per shard until the subscriber catches up.
	Buffer int
	// Resume and ResumeEpoch ask to continue an earlier subscription: when
	// ResumeEpoch matches the service's epoch and a shard's resumed version
	// is no older than the shard's last state-changing publication, the
	// reader is provably current and no seed frame is sent for that shard;
	// any mismatch falls back to a Full reseed. Zero values mean a fresh
	// attach.
	Resume      []ShardVersion
	ResumeEpoch uint64
	// Probe names the probe lane the frames carry; nil selects the plan's
	// own lane (Spec), the values ResultGrouped reads. A member lane's frames
	// carry its per-partition values (AVG lanes are finished per partition,
	// each group its partition's exact average; see SetProbes). Publications
	// made while the lane is not installed offer nothing to this
	// subscription.
	Probe *engine.ProbeSpec
}

// Subscription is one registered reader. Frames delivers coalesced
// DeltaFrames until Close (or the service closing, or a failure Err
// reports) closes the channel.
type Subscription struct {
	frames chan DeltaFrame
	wake   chan struct{} // cap 1: publication token for the pump
	quit   chan struct{}
	once   sync.Once
	shards []*subShard
	detach func(*Subscription)
	err    atomic.Pointer[error] // set by the pump before it closes frames
}

// subShard is one subscription's coalescing slot for one shard. The shard
// worker offers every publication under mu — marking the dirty partition
// slots the filter admits and keeping only the newest snapshot — and the
// subscription's pump turns that into at most one frame, so the state per
// slot is one bit per partition slot plus one pinned snapshot no matter how
// far the subscriber lags.
type subShard struct {
	shard  int
	sub    *Subscription
	filter map[string]bool  // encoded-key subset, nil = all partitions
	lane   engine.ProbeSpec // the lane the frames carry

	mu        sync.Mutex
	has       bool      // a pending frame exists
	full      bool      // pending frame replaces the whole shard state
	base      uint64    // version the pending frame applies on top of
	delivered uint64    // version of the last frame handed to the pump
	snap      *Snapshot // newest publication offered; the pending frame's version
	marks     []uint64  // pending partition slots (bit slot%64 of word slot/64)

	keyBuf  []byte   // filter lookup scratch, shard worker only
	free    []uint64 // cleared mark words take swaps in, pump only
	byRank  []uint64 // marks translated to key-order positions, pump only
	pumpBuf []byte   // filter lookup scratch, pump only
}

// newEpoch draws a random nonzero service epoch.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 1
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Subscribe registers a reader for this service's grouped results. Each shard
// seeds the subscription with a Full frame at its current version (unless a
// matching resume makes the seed redundant), after which every snapshot
// publication is pushed as a coalescing delta. The returned subscription must
// be Closed when done; the service's Close also finalizes it. Subscribe
// returns ErrClosed once Close has begun, so a subscription it does return is
// always one Close finalizes.
func (s *Service) Subscribe(opt SubOptions) (*Subscription, error) {
	buf := opt.Buffer
	if buf <= 0 {
		buf = 16
	}
	var filter map[string]bool
	if len(opt.Keys) > 0 {
		filter = make(map[string]bool, len(opt.Keys))
		for _, k := range opt.Keys {
			vals := normalizeVals(append([]float64(nil), k...))
			filter[string(encodeKey(nil, vals))] = true
		}
	}
	resume := make(map[int]uint64, len(opt.Resume))
	if opt.ResumeEpoch != 0 && opt.ResumeEpoch == s.epoch {
		for _, sv := range opt.Resume {
			if sv.Shard >= 0 && sv.Shard < len(s.shards) {
				resume[sv.Shard] = sv.Version
			}
		}
	}
	sub := &Subscription{
		frames: make(chan DeltaFrame, buf),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		shards: make([]*subShard, len(s.shards)),
		detach: s.detachSub,
	}
	lane := s.plan.spec
	if opt.Probe != nil {
		lane = *opt.Probe
	}
	for i := range s.shards {
		sub.shards[i] = &subShard{shard: i, sub: sub, filter: filter, lane: lane}
	}
	for i := range s.shards {
		ss := sub.shards[i]
		rv, hasResume := resume[i]
		if err := s.control(i, func(ws *workerState) error {
			ws.subs = append(ws.subs, ss)
			if hasResume && rv == ws.version {
				// Only a commit that changes state publishes, so a reader
				// at the current version is provably current: no reseed,
				// the next publication's delta is based on rv.
				ss.delivered = rv
				return nil
			}
			// Control requests run right after a commit, so the shard's
			// published snapshot is the worker's state at ws.version.
			ss.offerFull(s.shards[ws.idx].snap.Load())
			return nil
		}); err != nil {
			// Mark closed so any slots already registered are dropped at the
			// shards' next publication.
			sub.Close()
			return nil, fmt.Errorf("serve: subscribe shard %d: %w", i, err)
		}
	}
	// Record the subscription against Close's collection: once Close has
	// collected the live set it would never finalize this one, so refuse it.
	s.subMu.Lock()
	if s.subsClosed {
		s.subMu.Unlock()
		sub.Close()
		return nil, ErrClosed
	}
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	sub.notify() // deliver the seed frames
	go sub.pump()
	return sub, nil
}

func (s *Service) detachSub(sub *Subscription) {
	s.subMu.Lock()
	delete(s.subs, sub)
	s.subMu.Unlock()
}

// publishSubs runs on a shard worker right after it stored snap, the new
// snapshot: it offers the publication to every live subscriber slot and
// drops slots whose subscription has closed. dirty is the batch's touched
// partitions, in no particular order. When ws.publishFull is set the worker
// offers the full partition set instead, because the previous published
// state is not a valid delta base (a lane change).
func (s *Service) publishSubs(ws *workerState, snap *Snapshot, dirty []*partition) {
	live := ws.subs[:0]
	for _, ss := range ws.subs {
		if ss.sub.closedNow() {
			continue
		}
		live = append(live, ss)
		if ws.publishFull {
			ss.offerFull(snap)
		} else {
			ss.offer(snap, dirty)
		}
		ss.sub.notify()
	}
	for i := len(live); i < len(ws.subs); i++ {
		ws.subs[i] = nil
	}
	ws.subs = live
	ws.publishFull = false
}

// offer folds one incremental publication into the slot: the pending
// frame's base stays put, its snapshot advances to snap, and the dirty
// partitions the key filter admits are marked — the coalescing that keeps a
// lagging subscriber's state bounded while guaranteeing it still converges
// on the newest values, which take reads from snap. A pending Full frame
// absorbs the marks: it carries every partition anyway.
func (ss *subShard) offer(snap *Snapshot, dirty []*partition) {
	ss.mu.Lock()
	if !ss.has {
		ss.has = true
		ss.full = false
		ss.base = ss.delivered
	}
	ss.snap = snap
	if !ss.full {
		if words := (len(snap.Keys) + 63) / 64; len(ss.marks) < words {
			ss.marks = append(ss.marks, make([]uint64, words-len(ss.marks))...)
		}
		for _, p := range dirty {
			if ss.filter == nil || ss.admits(&ss.keyBuf, p.vals) {
				ss.marks[p.slot/64] |= 1 << (p.slot % 64)
			}
		}
	}
	ss.mu.Unlock()
}

// offerFull replaces the slot's pending frame with the whole of snap: take
// emits every partition the filter admits. Any pending incremental marks
// are subsumed (their slots are a subset of the live partitions), so a full
// offer is absorbing.
func (ss *subShard) offerFull(snap *Snapshot) {
	ss.mu.Lock()
	ss.has = true
	ss.full = true
	ss.base = 0
	ss.snap = snap
	ss.mu.Unlock()
}

// admits reports whether the slot's key filter admits key, encoding it into
// *buf: the worker passes keyBuf, the pump pumpBuf.
func (ss *subShard) admits(buf *[]byte, key []float64) bool {
	*buf = encodeKey((*buf)[:0], key)
	return ss.filter[string(*buf)]
}

// Frames is the subscription's delivery channel. It closes after Close (or
// the service closing); a reader that keeps up sees one frame per shard
// publication, a lagging reader sees coalesced frames whose Version always
// reaches the newest published one.
func (sub *Subscription) Frames() <-chan DeltaFrame { return sub.frames }

// Err returns the failure that ended the subscription (wrapping
// ErrSubscriptionFailed), or nil while it runs or when Close ended it. It
// is set before Frames closes.
func (sub *Subscription) Err() error {
	if p := sub.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close detaches the subscription. Shard workers drop its slots at their next
// publication; the pump exits and closes Frames. Safe to call more than once
// and concurrently with delivery.
func (sub *Subscription) Close() {
	sub.once.Do(func() {
		close(sub.quit)
		if sub.detach != nil {
			sub.detach(sub)
		}
	})
}

func (sub *Subscription) closedNow() bool {
	select {
	case <-sub.quit:
		return true
	default:
		return false
	}
}

// notify hands the pump a wake token; a token already pending is enough.
func (sub *Subscription) notify() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// pump turns pending slot state into delivered frames. It blocks on the
// delivery channel, not the shard workers: a slow subscriber stalls only its
// own pump while publications keep coalescing into the slots. A panic while
// a frame is built ends this subscription alone: the pump records it as Err,
// detaches, and closes Frames; the shard workers drop its slots at their
// next publication.
func (sub *Subscription) pump() {
	defer close(sub.frames)
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: frame build panicked: %v", ErrSubscriptionFailed, r)
			sub.err.Store(&err)
			sub.Close()
		}
	}()
	for {
		select {
		case <-sub.wake:
		case <-sub.quit:
			return
		}
		for _, ss := range sub.shards {
			fr, ok := ss.take()
			if !ok {
				continue
			}
			select {
			case sub.frames <- fr:
			case <-sub.quit:
				return
			}
		}
	}
}

// take extracts the slot's pending frame, if any, resetting the slot so the
// next publication starts a fresh delta based on what was just delivered.
// Under mu it only swaps the marks for the pump's cleared words and unpins
// the snapshot; the frame is built outside the lock, so the shard worker
// never waits on the walk.
func (ss *subShard) take() (DeltaFrame, bool) {
	ss.mu.Lock()
	if !ss.has {
		ss.mu.Unlock()
		return DeltaFrame{}, false
	}
	snap, full, base, marks := ss.snap, ss.full, ss.base, ss.marks
	ss.marks, ss.free, ss.snap = ss.free, nil, nil
	ss.has, ss.full = false, false
	ss.delivered = snap.Version
	ss.mu.Unlock()
	if fault := frameFault.Load(); fault != nil {
		(*fault)(ss.sub)
	}
	fr := DeltaFrame{Shard: ss.shard, Version: snap.Version, Base: base, Full: full, Groups: ss.groups(snap, marks, full)}
	clear(marks)
	ss.free = marks
	return fr, true
}

// groups builds a frame's groups from snap in key order: every partition
// the filter admits when full (one walk of Order), else the marked slots
// (the filter already applied by offer). Marks are by slot, so they are
// first translated to key-order positions through snap's rank and then
// emitted position by position — O(words + marks), no key comparison,
// however few partitions are marked. A lane snap does not carry yields
// none.
func (ss *subShard) groups(snap *Snapshot, marks []uint64, full bool) []engine.GroupResult {
	lane := laneOfSpec(snap.Probes, ss.lane)
	if lane < 0 {
		return nil
	}
	k := len(snap.Probes)
	group := func(slot int32) engine.GroupResult {
		at := int(slot)*k + lane
		var cnt float64
		if snap.Cnts != nil {
			cnt = snap.Cnts[at]
		}
		return engine.GroupResult{Key: snap.Keys[slot], Value: engine.FinishProbe(ss.lane, snap.Vals[at], cnt)}
	}
	if full {
		out := make([]engine.GroupResult, 0, len(snap.Order))
		for _, slot := range snap.Order {
			if ss.filter == nil || ss.admits(&ss.pumpBuf, snap.Keys[slot]) {
				out = append(out, group(slot))
			}
		}
		return out
	}
	if words := (len(snap.Order) + 63) / 64; len(ss.byRank) < words {
		ss.byRank = append(ss.byRank, make([]uint64, words-len(ss.byRank))...)
	}
	n := 0
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			pos := snap.rank[w*64+bits.TrailingZeros64(word)]
			ss.byRank[pos/64] |= 1 << (pos % 64)
			n++
		}
	}
	out := make([]engine.GroupResult, 0, n)
	for w, word := range ss.byRank {
		for ; word != 0; word &= word - 1 {
			out = append(out, group(snap.Order[w*64+bits.TrailingZeros64(word)]))
		}
		ss.byRank[w] = 0
	}
	return out
}
