package rpai

import "runtime"

// Batched insertion. AddMany applies a sequence of Add operations with state
// bit-identical to applying them one at a time — float evaluation order is
// part of the contract, verified differentially by the fuzzers — while
// amortizing the per-operation tree work across the batch:
//
//   - consecutive entries with the same key update the found node in O(1)
//     without re-descending (the grouped-aggregate workload, where a batch of
//     events lands on a handful of group keys, hits this path almost always);
//   - entries that land on existing keys defer the bottom-up subtree-sum
//     unwind: the descent path is kept, and sums are recomputed once per
//     distinct path suffix when the next entry diverges (or once at batch
//     end) instead of once per entry.
//
// Deferral is safe because a node caches its child subtree sums and derives
// its own as value + leftSum + rightSum — update's exact evaluation order —
// so a deepest-first recompute of the stale path frames lands on the same
// bits the per-entry unwind would have stored. Structural inserts (new keys)
// rebalance the tree, so they first flush any deferred sums and then run the
// ordinary single-insert path, keeping rotations bit-identical too.

// Entry is a (true key, value) pair: the element of the batched AddMany
// paths and of the ranges a negative ShiftKeys re-inserts.
type Entry struct {
	Key   float64
	Value float64
}

// AddMany applies Add(e.Key, e.Value) for each entry in order. The resulting
// tree state is bit-identical to the sequential Adds (see the file comment).
func (t *Tree) AddMany(entries []Entry) {
	var (
		path  [maxPathLen]int32
		dirs  [maxPathLen]bool // dirs[d]: the descent leaves path[d] rightward
		depth int              // cached frames; path[depth-1] is the last found node
		dirty bool             // some cached frame has a deferred sum unwind
		prev  float64          // key of the entry that produced the cached tip
		touch float64          // see prefix
	)
	// flush recomputes the deferred frames deepest-first down to (and
	// including) frame from. Children of a flushed frame are canonical — the
	// off-path child was never touched and the on-path child was flushed
	// first — so t.update stores exactly the sums the per-entry unwind would
	// have.
	flush := func(from int) {
		for d := depth - 1; d >= from; d-- {
			t.update(path[d])
		}
		depth = from
		if from == 0 {
			dirty = false
		}
	}

entries:
	for idx := range entries {
		e := &entries[idx]
		checkKey(e.Key)

		// Same key as the cached tip: the fresh descent would retrace the
		// cached path exactly (keys are untouched by value updates), so
		// update the tip in place.
		if depth > 0 && e.Key == prev {
			tip := t.nodeAt(path[depth-1])
			tip.value += e.Value
			dirty = true
			continue
		}

		// Walk the cached prefix, reproducing the descent's exact
		// remaining-key subtraction chain, until this key diverges from the
		// previous one's path.
		rem := e.Key
		j := 0
		var i int32 // node the fresh descent continues from
		for {
			if j < depth {
				n := t.nodeAt(path[j])
				if rem == n.key {
					// Found at a cached frame: frames below it leave the
					// path — flush them — and this frame becomes the tip.
					flush(j + 1)
					n.value += e.Value
					dirty = true
					prev = e.Key
					continue entries
				}
				dir := rem > n.key
				if j < depth-1 && dir == dirs[j] {
					rem -= n.key
					j++
					continue
				}
				// Diverging: the frames below j belong to the old path.
				if j < depth-1 {
					flush(j + 1)
				}
				dirs[j] = dir
				rem -= n.key
				if dir {
					i = n.right
				} else {
					i = n.left
				}
				depth = j + 1
				if i < 0 {
					goto structural
				}
				break
			}
			// Empty cache: descend from the root.
			if t.root < 0 {
				t.root = t.alloc(e.Key, e.Value)
				t.nodes[t.root].color = black
				continue entries
			}
			i = t.root
			break
		}

		// Fresh descent from i, appending frames — the same loop as insert.
		for {
			if depth == maxPathLen {
				// Unreachable in practice (see insert); fall back to the
				// recursive add on a canonical tree.
				flush(0)
				t.root = t.ins(t.root, e.Key, e.Value, false)
				t.nodes[t.root].color = black
				continue entries
			}
			n := t.nodeAt(i)
			l, r := n.left, n.right
			if l >= 0 {
				touch += t.nodeAt(l).key
			}
			if r >= 0 {
				touch += t.nodeAt(r).key
			}
			if rem < n.key {
				path[depth], dirs[depth] = i, false
				depth++
				rem -= n.key
				if l < 0 {
					goto structural
				}
				i = l
			} else if rem > n.key {
				path[depth], dirs[depth] = i, true
				depth++
				rem -= n.key
				if r < 0 {
					goto structural
				}
				i = r
			} else {
				path[depth] = i
				depth++
				n.value += e.Value
				dirty = true
				prev = e.Key
				continue entries
			}
		}

	structural:
		// rem is the new key relative to path[depth-1], whose dirs[depth-1]
		// child is nil.
		if dirty {
			// Rotations recompute sums from children; deferred frames
			// elsewhere on the path would bake stale values in. Flush to the
			// canonical state the sequential Add would see, then take the
			// ordinary single-insert path.
			flush(0)
			t.insert(e.Key, e.Value, false)
			continue entries
		}
		{
			// Clean cache: the frames are exactly the path insert would have
			// recorded, so attach and unwind through fixUp in place.
			c := t.alloc(rem, e.Value)
			p := path[depth-1]
			if dirs[depth-1] {
				t.nodes[p].right = c
			} else {
				t.nodes[p].left = c
			}
			t.unwind(path[:depth], dirs[:depth])
			depth = 0
		}
	}
	if dirty {
		flush(0)
	}
	runtime.KeepAlive(touch)
}
