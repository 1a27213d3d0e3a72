package serve

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
)

// This file is the snapshot half of durability: Checkpoint exports a
// consistent point-in-time copy of every shard to a directory through the
// executors' engine.Snapshotter, RecoverForQuery rebuilds a service from one
// through engine.Restore. There is no log here — events between two
// snapshots are the catalog's shared WAL's business. All shard-state access
// happens on the owning worker goroutine via control requests, so none of
// this code takes locks on partition state.

// snapshotGen is the generation every exported checkpoint carries: an export
// is a standalone directory, so there is nothing to rotate against.
const snapshotGen = 1

// snapshotShard writes one shard's partitions to dir. It runs on the shard's
// worker goroutine, so it owns ws exclusively.
func (s *Service) snapshotShard(ws *workerState, dir string) error {
	// Partitions in the order of their keys' big-endian byte encoding.
	byKey := slices.Clone(ws.plist)
	slices.SortFunc(byKey, func(a, b *partition) int {
		for i := range a.vals {
			if c := cmp.Compare(math.Float64bits(a.vals[i]), math.Float64bits(b.vals[i])); c != 0 {
				return c
			}
		}
		return 0
	})
	h := checkpoint.Header{Gen: snapshotGen, Shard: uint32(ws.idx), ShardCount: uint32(len(s.shards))}
	return checkpoint.WriteFileAtomic(checkpoint.SnapPath(dir, snapshotGen, ws.idx), func(w io.Writer) error {
		sw := checkpoint.NewSnapshotWriter(w, h)
		for _, p := range byKey {
			sn, ok := p.ex.(engine.Snapshotter)
			if !ok {
				return fmt.Errorf("serve: executor %T does not support snapshots", p.ex)
			}
			if err := sw.Partition(p.vals, sn.Snapshot); err != nil {
				return fmt.Errorf("serve: snapshotting partition %v: %w", p.vals, err)
			}
		}
		return sw.Close()
	})
}

// Checkpoint exports a standalone snapshot of every shard to dir: one
// snapshot file per shard, then the MANIFEST, written last so a directory
// with a manifest is always complete. RecoverForQuery opens it later, on any
// shard count.
//
// Each shard snapshots between batches, so the checkpoint captures a
// point-in-time state per partition; call Drain first for a state that
// includes everything sent so far. Once every shard has written its file,
// Checkpoint empties the batch-box free list: the boxes of everything
// queued before it are back on the list by then, and an idle service keeps
// none of them. Checkpoint returns ErrClosed after Close.
func (s *Service) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dones := make([]chan error, len(s.shards))
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	for i, sh := range s.shards {
		done := make(chan error, 1)
		dones[i] = done
		sh.in <- item{ctl: &ctl{
			fn:   func(ws *workerState) error { return s.snapshotShard(ws, dir) },
			done: done,
		}}
	}
	s.mu.RUnlock()
	var first error
	for _, done := range dones {
		if err := <-done; err != nil && first == nil {
			first = err
		}
	}
	s.boxMu.Lock()
	s.idle = nil // leave the boxes to the collector
	s.boxMu.Unlock()
	if first != nil {
		return first
	}
	return checkpoint.WriteManifest(dir, checkpoint.Manifest{Gen: snapshotGen, Shards: uint32(len(s.shards))})
}

// control runs fn on shard i's worker goroutine and returns its error.
func (s *Service) control(i int, fn func(ws *workerState) error) error {
	done := make(chan error, 1)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.shards[i].in <- item{ctl: &ctl{fn: fn, done: done}}
	s.mu.RUnlock()
	return <-done
}

// RecoverForQuery rebuilds a ForQuery service from the checkpoint directory
// dir: it restores every partition executor from the shard snapshots the
// MANIFEST names and returns the service ready for new events. The query and
// partition columns must match the ones the checkpoint was written under (a
// mismatched query fails executor restoration); the shard count may differ —
// partitions are rehashed onto opt.Shards.
func RecoverForQuery(dir string, q *query.Query, partitionBy []string, opt Options) (*Service, error) {
	return RecoverForPartitions(dir, NewPartitions(partitionBy), q, opt)
}

// RecoverForPartitions is RecoverForQuery over d's partition columns, taking
// partition ids from d (see ForPartitions): each restored key is resolved
// through d, so ids are rebuilt, never read from disk.
func RecoverForPartitions(dir string, d *Partitions, q *query.Query, opt Options) (*Service, error) {
	pl, err := newPlan(q, d.cols)
	if err != nil {
		return nil, err
	}
	m, err := checkpoint.ReadManifest(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("serve: %s is not a checkpoint directory", dir)
		}
		return nil, err
	}
	svc, err := start(pl, d, opt)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Service, error) {
		svc.Close()
		return nil, err
	}
	// Rehash the restored partitions onto the (possibly different) shard
	// count, then install each list on its owning worker.
	type install struct {
		id int32
		p  *partition
	}
	installs := make([][]install, len(svc.shards))
	for i := 0; i < int(m.Shards); i++ {
		h, parts, err := checkpoint.ReadSnapshotFile(checkpoint.SnapPath(dir, m.Gen, i))
		if err != nil {
			return fail(fmt.Errorf("serve: %s shard %d snapshot: %w", dir, i, err))
		}
		if h.Gen != m.Gen || int(h.Shard) != i || h.ShardCount != m.Shards {
			return fail(fmt.Errorf("serve: %s shard %d snapshot: header says gen %d shard %d of %d, manifest gen %d of %d",
				dir, i, h.Gen, h.Shard, h.ShardCount, m.Gen, m.Shards))
		}
		for _, sp := range parts {
			ex, err := pl.prep.Restore(bytes.NewReader(sp.State))
			if err != nil {
				return fail(fmt.Errorf("serve: %s shard %d partition %v: %w", dir, i, sp.Key, err))
			}
			// Normalize restored keys so checkpoints written before the -0/NaN
			// canonicalization still rehash onto the same shard as live events.
			id, key, hash := d.restore(normalizeVals(append([]float64(nil), sp.Key...)))
			t := int(hash % uint64(len(svc.shards)))
			installs[t] = append(installs[t], install{id, &partition{vals: key, ex: ex}})
		}
	}
	for i, list := range installs {
		if len(list) == 0 {
			continue
		}
		list := list
		if err := svc.control(i, func(ws *workerState) error {
			for _, in := range list {
				if ws.lookup(in.id) != nil {
					return fmt.Errorf("serve: duplicate partition %v in checkpoint", in.p.vals)
				}
				ws.addPartition(in.id, in.p)
				ws.refresh(in.p)
			}
			svc.shards[ws.idx].partitions.Store(int64(len(ws.plist)))
			return nil
		}); err != nil {
			return fail(err)
		}
	}
	// The installs ran as control requests, each followed by a publication;
	// the barrier makes the restored results readable before RecoverForQuery
	// returns.
	if err := svc.Drain(); err != nil {
		return fail(err)
	}
	return svc, nil
}
