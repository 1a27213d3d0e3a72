package serve

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

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
// Publication cost is proportional to the batch, not to the subscriber
// count: a commit builds each delta run its subscribers need once — the dirty
// partitions' groups in key order, one run for base-result readers and one
// per subscribed probe lane — and never changes it afterwards. A slot with
// nothing pending takes the run by reference; a slot that already holds a
// pending frame merges the run into it (a sorted merge, later values win), so
// a lagging slot holds at most one group per partition.

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
	// Probe, when non-nil, subscribes to the probe lane serving that spec
	// instead of the base results: frames carry the lane's per-partition
	// values (AVG lanes are finished per partition, each group its
	// partition's exact average; see SetProbes). Publications made while the
	// lane is not installed offer nothing to this subscription.
	Probe *engine.ProbeSpec
}

// Subscription is one registered reader. Frames delivers coalesced
// DeltaFrames until Close (or the service closing) closes the channel.
type Subscription struct {
	frames chan DeltaFrame
	wake   chan struct{} // cap 1: publication token for the pump
	quit   chan struct{}
	once   sync.Once
	shards []*subShard
	detach func(*Subscription)
}

// subShard is one subscription's coalescing slot for one shard. The shard
// worker merges every publication into the slot under mu (later values win),
// and the subscription's pump drains it into at most one frame — so the
// memory per slot is bounded by the subscribed partition count no matter how
// far the subscriber lags.
//
// pend is the pending frame's groups in key order: a publication's shared
// run held by reference (owned false, never written), or a slot-owned merge
// (owned true) whose backing array the slot may overwrite until take hands
// it out. spare is the slot's merge target, swapped with pend on every merge.
type subShard struct {
	shard   int
	sub     *Subscription
	filter  map[string]bool  // encoded-key subset, nil = all partitions
	hasLane bool             // frames carry a probe lane's values, not the base results
	lane    engine.ProbeSpec // the lane spec (valid when hasLane)

	mu        sync.Mutex
	has       bool   // a pending frame exists
	full      bool   // pending frame replaces the whole shard state
	base      uint64 // version the pending frame applies on top of
	version   uint64 // version the pending frame brings the subscriber to
	delivered uint64 // version of the last frame handed to the pump
	pend      []engine.GroupResult
	owned     bool
	spare     []engine.GroupResult

	keyBuf []byte // filter lookup scratch, shard worker only
}

// subRun is one publication's shared delta run for one kind of reader: the
// base results (hasLane false) or one probe lane's finished values. groups is
// immutable once built.
type subRun struct {
	hasLane bool
	lane    engine.ProbeSpec
	groups  []engine.GroupResult
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
	for i := range s.shards {
		ss := &subShard{shard: i, sub: sub, filter: filter}
		if opt.Probe != nil {
			ss.hasLane, ss.lane = true, *opt.Probe
		}
		sub.shards[i] = ss
	}
	for i := range s.shards {
		ss := sub.shards[i]
		rv, hasResume := resume[i]
		if err := s.control(i, func(ws *workerState) error {
			ws.subs = append(ws.subs, ss)
			if hasResume && rv <= ws.version && rv >= ws.lastChange {
				// Every commit past the resumed version was empty, so the
				// reader's state is provably current: no reseed, the next
				// publication's delta is based on rv.
				ss.delivered = rv
				return nil
			}
			s.offerFull(ws, ss, ws.version)
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

// publishSubs runs on a shard worker right after it stored a new snapshot:
// it offers the publication to every live subscriber slot and drops slots
// whose subscription has closed. dirty is the batch's touched partitions
// (results already refreshed); each run a slot needs is built from it once
// and shared by every slot that needs it. When ws.publishFull is set the
// worker offers the full partition set instead, because the previous
// published state is not a valid delta base (a lane change).
func (s *Service) publishSubs(ws *workerState, dirty []*partition) {
	if !ws.publishFull {
		slices.SortFunc(dirty, func(a, b *partition) int { return engine.CompareKeys(a.vals, b.vals) })
	}
	live := ws.subs[:0]
	for _, ss := range ws.subs {
		if ss.sub.closedNow() {
			continue
		}
		live = append(live, ss)
		if ws.publishFull {
			s.offerFull(ws, ss, ws.version)
		} else {
			ss.offer(ws.runFor(ss, dirty), ws.version)
		}
		ss.sub.notify()
	}
	for i := len(live); i < len(ws.subs); i++ {
		ws.subs[i] = nil
	}
	ws.subs = live
	ws.publishFull = false
	clear(ws.runs)
	ws.runs = ws.runs[:0]
}

// runFor returns this publication's run for ss's kind of reader, building
// it from the key-ordered dirty partitions the first time it is asked for.
func (ws *workerState) runFor(ss *subShard, dirty []*partition) []engine.GroupResult {
	for _, r := range ws.runs {
		if r.hasLane == ss.hasLane && r.lane == ss.lane {
			return r.groups
		}
	}
	groups := make([]engine.GroupResult, 0, len(dirty))
	for _, p := range dirty {
		if v, ok := subLane(ws, ss, p); ok {
			groups = append(groups, engine.GroupResult{Key: p.vals, Value: v})
		}
	}
	ws.runs = append(ws.runs, subRun{hasLane: ss.hasLane, lane: ss.lane, groups: groups})
	return groups
}

// subLane resolves the value a partition contributes to this subscription:
// the base result, or the subscribed probe lane's value (AVG lanes finished
// per partition). ok is false when the slot wants a lane the worker has not
// installed (or the partition carries no lane values), in which case the
// partition is not offered.
func subLane(ws *workerState, ss *subShard, p *partition) (float64, bool) {
	if !ss.hasLane {
		return p.last, true
	}
	lane := laneOfSpec(ws.specs, ss.lane)
	if lane < 0 || lane >= len(p.fan) {
		return 0, false
	}
	var cnt float64
	if lane < len(p.fanCnt) {
		cnt = p.fanCnt[lane]
	}
	return engine.FinishProbe(ss.lane, p.fan[lane], cnt), true
}

// wants reports whether the slot's key filter admits key.
func (ss *subShard) wants(key []float64) bool {
	ss.keyBuf = encodeKey(ss.keyBuf[:0], key)
	return ss.filter[string(ss.keyBuf)]
}

// offer folds one incremental publication's run into the slot: the pending
// frame's base stays put, its version advances, and a later value of a key
// overwrites an earlier one — the coalescing that keeps a lagging
// subscriber's memory bounded while guaranteeing it still converges on the
// newest values. A key-filtered slot keeps its own filtered copy of the run.
func (ss *subShard) offer(run []engine.GroupResult, version uint64) {
	owned := false
	if ss.filter != nil {
		var kept []engine.GroupResult
		for _, g := range run {
			if ss.wants(g.Key) {
				kept = append(kept, g)
			}
		}
		run, owned = kept, true
	}
	ss.mu.Lock()
	if !ss.has {
		// take left pend empty.
		ss.has = true
		ss.full = false
		ss.base = ss.delivered
	}
	ss.version = version
	switch {
	case len(run) == 0:
	case len(ss.pend) == 0:
		ss.pend, ss.owned = run, owned
	default:
		merged := mergeRuns(ss.spare[:0], ss.pend, run)
		if ss.owned {
			ss.spare = ss.pend
		} else {
			ss.spare = nil
		}
		ss.pend, ss.owned = merged, true
	}
	ss.mu.Unlock()
}

// mergeRuns appends to dst the sorted merge of two key-ordered runs; on a
// key both carry, the later run's group wins.
func mergeRuns(dst, earlier, later []engine.GroupResult) []engine.GroupResult {
	i, j := 0, 0
	for i < len(earlier) && j < len(later) {
		switch c := engine.CompareKeys(earlier[i].Key, later[j].Key); {
		case c < 0:
			dst = append(dst, earlier[i])
			i++
		case c > 0:
			dst = append(dst, later[j])
			j++
		default:
			dst = append(dst, later[j])
			i++
			j++
		}
	}
	dst = append(dst, earlier[i:]...)
	return append(dst, later[j:]...)
}

// offerFull replaces the slot's pending frame with the shard's complete
// state, walked in key order. Any pending incremental upserts are dropped
// (their keys are a subset of the live partitions), so a full offer is
// absorbing.
func (s *Service) offerFull(ws *workerState, ss *subShard, version uint64) {
	groups := make([]engine.GroupResult, 0, len(ws.order))
	for _, slot := range ws.order {
		p := ws.plist[slot]
		if ss.filter != nil && !ss.filter[p.ekey] {
			continue
		}
		if v, ok := subLane(ws, ss, p); ok {
			groups = append(groups, engine.GroupResult{Key: p.vals, Value: v})
		}
	}
	ss.mu.Lock()
	ss.has = true
	ss.full = true
	ss.base = 0
	ss.version = version
	ss.pend, ss.owned = groups, true
	ss.mu.Unlock()
}

// Frames is the subscription's delivery channel. It closes after Close (or
// the service closing); a reader that keeps up sees one frame per shard
// publication, a lagging reader sees coalesced frames whose Version always
// reaches the newest published one.
func (sub *Subscription) Frames() <-chan DeltaFrame { return sub.frames }

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
// own pump while publications keep coalescing into the slots.
func (sub *Subscription) pump() {
	defer close(sub.frames)
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
// The pending groups are already in key order; the frame takes them over.
func (ss *subShard) take() (DeltaFrame, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.has {
		return DeltaFrame{}, false
	}
	fr := DeltaFrame{Shard: ss.shard, Version: ss.version, Base: ss.base, Full: ss.full, Groups: ss.pend}
	ss.pend, ss.owned = nil, false
	ss.has, ss.full = false, false
	ss.delivered = ss.version
	return fr, true
}
