package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rpai/internal/checkpoint"
)

// followPollDefault is the tail polling interval when Follow is passed 0.
const followPollDefault = 5 * time.Millisecond

// follower is the tailing half of a read-only catalog: the manifest bytes
// its state was restored from, its cursor over that generation's shared WAL,
// and the goroutine that advances both.
type follower struct {
	s    *Service
	poll time.Duration

	// raw, tail and replay belong to the tailer goroutine.
	raw    []byte
	tail   *checkpoint.WALTail
	replay func(rec []byte) error

	err      error // what stopped the tailer early; read after done closes
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

// Follow opens a read-only follower of the primary catalog whose data
// directory is opt.Dir (shared with, or mirrored from, the primary). It is
// Recover without the final rotation and without a WAL writer: the same
// restore, then a tail over the generation's shared WAL that applies each
// batch record as the primary appends it — so every state the follower
// publishes is a batch-boundary prefix of the primary's history. Queries and
// partition columns come from the manifest; opt.Shards may differ from the
// primary's.
//
// When the CATALOG manifest changes — a rotation, or a query registered or
// unregistered on the primary — the follower runs the same restore against
// the new manifest, catches the fresh copy up, and swaps it in. State only
// moves forward across the swap (a generation's snapshots contain everything
// the previous WAL held), but the executor sets are new ones: subscriptions
// on the old sets are closed, and a subscriber that re-attaches is reseeded
// with Full frames under a new epoch, never handed a delta on the stale base.
//
// Every write and registration call returns ErrReadOnly. poll is the tail
// polling interval (0 selects 5ms). Close stops the tailer.
func Follow(opt Options, poll time.Duration) (*Service, error) {
	if poll <= 0 {
		poll = followPollDefault
	}
	opt.CompactEvery = 0
	s, raw, tail, err := openFollow(opt)
	if err != nil {
		return nil, err
	}
	s.follow = &follower{s: s, poll: poll, raw: raw, tail: tail, replay: s.replayer(),
		quit: make(chan struct{}), done: make(chan struct{})}
	go s.follow.run()
	return s, nil
}

// openFollow restores a service from the manifest currently in opt.Dir,
// opens that generation's WAL, replays every complete record in it, and waits
// for the executor sets to publish the result — so what it returns is
// readable, and a rebuild never swaps in state older than what it replaces.
func openFollow(opt Options) (*Service, []byte, *checkpoint.WALTail, error) {
	s, m, raw, err := restore(opt)
	if err != nil {
		return nil, nil, nil, err
	}
	tail, err := checkpoint.OpenWALTail(walPath(opt.Dir, m.gen))
	if err == nil {
		if err = drainTail(tail, s.replayer()); err == nil {
			err = s.DrainAll()
		}
		if err != nil {
			tail.Close()
		}
	}
	if err != nil {
		s.closeSets()
		return nil, nil, nil, fmt.Errorf("catalog: follow %s: %w", opt.Dir, err)
	}
	return s, raw, tail, nil
}

// drainTail applies every complete record past the cursor. A torn tail (the
// primary is mid-append) and a file recreated under the cursor both just end
// the round: the first completes by the next poll, and the second comes with
// a manifest change, which rebuilds.
func drainTail(tail *checkpoint.WALTail, replay func(rec []byte) error) error {
	for {
		rec, err := tail.Next()
		switch {
		case err == nil:
			if err := replay(rec); err != nil {
				return fmt.Errorf("replaying WAL record: %w", err)
			}
		case errors.Is(err, checkpoint.ErrNoRecord), errors.Is(err, checkpoint.ErrTailRotated):
			return nil
		default:
			return err
		}
	}
}

// stop ends the tailer and reports the error that stopped it early, if any.
func (f *follower) stop() error {
	f.quitOnce.Do(func() { close(f.quit) })
	<-f.done
	return f.err
}

// run is the tailer loop. A failed step is unrecoverable (a corrupt record,
// an event that does not decode): the tailer stops and the follower keeps
// serving its last state.
func (f *follower) run() {
	defer close(f.done)
	defer func() { f.tail.Close() }()
	tick := time.NewTicker(f.poll)
	defer tick.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-tick.C:
		}
		if err := f.step(); err != nil {
			f.err = fmt.Errorf("catalog: follower of %s stopped: %w", f.s.opt.Dir, err)
			return
		}
	}
}

// step advances the follower by one poll round: rebuild if the manifest
// moved, then apply whatever complete records the WAL has gained.
func (f *follower) step() error {
	s := f.s
	if raw, err := os.ReadFile(filepath.Join(s.opt.Dir, catalogName)); err == nil && !bytes.Equal(raw, f.raw) {
		// A rebuild that fails is retried next round: the primary may be
		// between its manifest swap and the removal of the old generation.
		if n, raw, tail, err := openFollow(s.opt); err == nil {
			f.tail.Close()
			s.mu.Lock()
			stale := s.setList
			s.regs, s.sets, s.states, s.baseKeys, s.setList = n.regs, n.sets, n.states, n.baseKeys, n.setList
			s.nextID, s.nextSet, s.records, s.applied = n.nextID, n.nextSet, n.records, n.applied
			f.raw, f.tail, f.replay = raw, tail, s.replayer()
			s.mu.Unlock()
			for _, set := range stale {
				set.svc.Close()
			}
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return drainTail(f.tail, f.replay)
}
