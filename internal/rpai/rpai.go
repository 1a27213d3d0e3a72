// Package rpai implements the Relative Partial Aggregate Index (RPAI) tree,
// the primary contribution of "Efficient Incrementalization of Correlated
// Nested Aggregate Queries using Relative Partial Aggregate Indexes"
// (Abeysinghe, He, Rompf; SIGMOD 2022).
//
// An RPAI tree is an ordered map from aggregate values (keys) to aggregate
// values, with two operations beyond get/put/delete that make it suitable for
// indexing partial aggregates:
//
//   - GetSum(k): the sum of all values whose key is <= k, in O(log n)
//     (paper section 3.1), and
//   - ShiftKeys(k, d): move every key strictly greater than k by d, in
//     O(log n) for d > 0 and O(m log n) for d < 0 where m is the number of
//     keys that collide into the unshifted region (paper section 3.2; m <= 1
//     in the aggregate-maintenance special case of section 3.2.4).
//
// Keys are stored relative to their parent: a node's true key is the sum of
// the stored keys along the path from the root. Shifting all keys in a
// subtree is then a constant-time update of the subtree root's stored key,
// which is what makes ShiftKeys logarithmic (paper section 3.2.1).
//
// The tree is a left-leaning red-black tree (paper section 3.2.5), so all
// operations stay logarithmic regardless of insertion order. For negative
// offsets this implementation departs from the paper's literal fixTree
// (which detaches and re-inserts whole subtree branches, an operation that
// does not preserve red-black invariants): the keys whose shifted position
// can violate the BST order are exactly those originally in (k, k-d], a
// contiguous range, so we extract that range with ordinary deletes, apply
// the pure relative shift, and re-insert the extracted entries at their
// shifted positions, merging values on key collisions. The cost is
// O(m log n), the same bound as the paper's fixTree. The literal algorithm
// is available in the Reference tree in this package for differential
// testing and ablation.
//
// Every node also maintains the sums of the values in its two child subtrees
// (serving GetSum) and the minimum and maximum true key of its subtree
// expressed relative to the node (serving validation and the reference
// algorithms). Nodes live in one slab addressed by int32 indices, with a free
// list for deleted slots, so steady-state maintenance allocates nothing.
//
// Tree and Reference are the paper's structure, the subject of Table 1,
// Figure 7 and the ablations. The engine serves correlated predicates from
// LevelTree instead: the same index with its relative keys made implicit,
// ordered by the correlation column and searched by accumulated weight, so
// an event costs one descent and no ShiftKeys (see levels.go).
package rpai

import (
	"fmt"
	"math"
	"runtime"
	"unsafe"
)

const (
	red   = true
	black = false
)

// Tree is a Relative Partial Aggregate Index backed by a flat node slab.
//
// Nodes live in a single []tnode slice and refer to each other by int32
// indices (nilIdx = -1 is the null link). Delete pushes the vacated slot onto
// an intrusive free list (linked through the left field), and inserts pop
// from that list before growing the slab, so steady-state churn — the
// aggregate-maintenance workload of the paper, where every event adds and
// removes entries — allocates nothing. The hot read/update paths (Get,
// GetSum, and Add or Put on an existing key) are iterative loops with no
// recursion and no closure captures; structural inserts and deletes are the
// recursive LLRB algorithms.
//
// The zero value is not usable; call New.
type Tree struct {
	nodes []tnode
	root  int32
	free  int32 // head of the free list, linked through tnode.left
	freeN int32 // number of slots on the free list
	// scratch backs extractRange during negative shifts so repeated shifts
	// reuse one buffer.
	scratch []Entry
}

// tnode is one entry. key is relative to the parent's true key; minRel and
// maxRel are the min/max true keys of the subtree expressed relative to this
// node's true key (0 for a leaf). It is exactly 64 bytes, so indexing
// compiles to a shift and a node never straddles two cache lines.
//
// A node caches its two child subtree sums (leftSum/rightSum, 0 for a missing
// child) and derives its own as value + leftSum + rightSum. The payoff is
// locality: the prefix descent (s += value + leftSum on right turns) and the
// bottom-up sum propagation after Add/Put read only nodes already on the
// root-to-leaf path, never a sibling's cache line.
type tnode struct {
	key      float64
	value    float64
	leftSum  float64
	rightSum float64
	minRel   float64
	maxRel   float64
	left     int32
	right    int32
	size     int32
	color    bool
}

const nilIdx = int32(-1)

// Compile-time asserts on the node size — either direction of drift fails
// the build.
var (
	_ [unsafe.Sizeof(tnode{}) - 64]byte
	_ [64 - unsafe.Sizeof(tnode{})]byte
)

// New returns an empty RPAI tree.
func New() *Tree { return &Tree{root: nilIdx, free: nilIdx} }

// nodeAt returns the node at index i without a bounds check. The descent
// loops of the hot paths pay two checked slab accesses per level otherwise;
// indices come only from the tree's own links, which the differential
// fuzzers and Validate keep honest. i must be a live index (>= 0, < len).
func (t *Tree) nodeAt(i int32) *tnode {
	return (*tnode)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(t.nodes)), uintptr(i)*unsafe.Sizeof(tnode{})))
}

// Len reports the number of keys in the tree.
func (t *Tree) Len() int { return int(t.sizeOf(t.root)) }

// Total returns the sum of all values in the tree, i.e. GetSum(+inf).
func (t *Tree) Total() float64 { return t.sumOf(t.root) }

// Cap reports the slab capacity in nodes (live + free-listed). Intended for
// tests and benchmarks asserting on allocation behaviour.
func (t *Tree) Cap() int { return len(t.nodes) }

// FreeSlots reports the number of recycled slots awaiting reuse.
func (t *Tree) FreeSlots() int { return int(t.freeN) }

func (t *Tree) sizeOf(i int32) int32 {
	if i < 0 {
		return 0
	}
	return t.nodes[i].size
}

// sumOf returns the subtree sum rooted at i, derived from the cached child
// sums.
func (t *Tree) sumOf(i int32) float64 {
	if i < 0 {
		return 0
	}
	n := &t.nodes[i]
	return n.value + n.leftSum + n.rightSum
}

func (t *Tree) isRed(i int32) bool { return i >= 0 && t.nodes[i].color == red }

// alloc pops a slot off the free list, growing the slab only when the list is
// empty, and initialises it as a red leaf holding (k, v).
func (t *Tree) alloc(k, v float64) int32 {
	var i int32
	if t.free >= 0 {
		i = t.free
		t.free = t.nodes[i].left
		t.freeN--
	} else {
		t.nodes = append(t.nodes, tnode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = tnode{key: k, value: v, left: nilIdx, right: nilIdx, size: 1, color: red}
	return i
}

// freeNode pushes slot i onto the free list. The slot is cleared so stale
// float payloads cannot leak into a future Validate or Encode.
func (t *Tree) freeNode(i int32) {
	t.nodes[i] = tnode{left: t.free, right: nilIdx}
	t.free = i
	t.freeN++
}

// update recomputes size, leftSum, rightSum, minRel and maxRel from the
// children. It must be called whenever children or stored keys change.
func (t *Tree) update(h int32) {
	n := &t.nodes[h]
	n.size = 1 + t.sizeOf(n.left) + t.sizeOf(n.right)
	n.leftSum = t.sumOf(n.left)
	n.rightSum = t.sumOf(n.right)
	n.minRel = 0
	if n.left >= 0 {
		l := &t.nodes[n.left]
		n.minRel = l.key + l.minRel
	}
	n.maxRel = 0
	if n.right >= 0 {
		r := &t.nodes[n.right]
		n.maxRel = r.key + r.maxRel
	}
}

// rotateLeft rotates h's right child above h, re-expressing the stored
// relative keys so that every true key is unchanged. Rotations never allocate,
// so the node pointers taken here cannot be invalidated by slab growth.
func (t *Tree) rotateLeft(h int32) int32 {
	x := t.nodes[h].right
	hn, xn := &t.nodes[h], &t.nodes[x]
	hk, xk := hn.key, xn.key
	xn.key = hk + xk
	hn.key = -xk
	if xn.left >= 0 {
		t.nodes[xn.left].key += xk
	}
	hn.right = xn.left
	xn.left = h
	xn.color = hn.color
	hn.color = red
	t.update(h)
	t.update(x)
	return x
}

// rotateRight rotates h's left child above h, preserving true keys.
func (t *Tree) rotateRight(h int32) int32 {
	x := t.nodes[h].left
	hn, xn := &t.nodes[h], &t.nodes[x]
	hk, xk := hn.key, xn.key
	xn.key = hk + xk
	hn.key = -xk
	if xn.right >= 0 {
		t.nodes[xn.right].key += xk
	}
	hn.left = xn.right
	xn.right = h
	xn.color = hn.color
	hn.color = red
	t.update(h)
	t.update(x)
	return x
}

func (t *Tree) flipColors(h int32) {
	n := &t.nodes[h]
	n.color = !n.color
	t.nodes[n.left].color = !t.nodes[n.left].color
	t.nodes[n.right].color = !t.nodes[n.right].color
}

func (t *Tree) fixUp(h int32) int32 {
	if t.isRed(t.nodes[h].right) && !t.isRed(t.nodes[h].left) {
		h = t.rotateLeft(h)
	}
	if l := t.nodes[h].left; t.isRed(l) && t.isRed(t.nodes[l].left) {
		h = t.rotateRight(h)
	}
	if t.isRed(t.nodes[h].left) && t.isRed(t.nodes[h].right) {
		t.flipColors(h)
	}
	t.update(h)
	return h
}

// Get returns the value stored under true key k and whether k is present.
func (t *Tree) Get(k float64) (float64, bool) {
	i := t.root
	for i >= 0 {
		n := t.nodeAt(i)
		switch {
		case k < n.key:
			k -= n.key
			i = n.left
		case k > n.key:
			k -= n.key
			i = n.right
		default:
			return n.value, true
		}
	}
	return 0, false
}

// Contains reports whether true key k is present.
func (t *Tree) Contains(k float64) bool {
	_, ok := t.Get(k)
	return ok
}

// Put stores v under key k, replacing any existing value.
func (t *Tree) Put(k, v float64) { t.insert(k, v, true) }

// Add adds dv to the value stored under k, inserting k with value dv if
// absent. Zero-valued entries remain present; use Delete to drop a key.
func (t *Tree) Add(k, dv float64) { t.insert(k, dv, false) }

// checkKey rejects keys that would silently corrupt the relative-key
// arithmetic: NaN breaks every comparison, and infinities collapse under the
// subtraction chains the parent-relative representation uses.
func checkKey(k float64) {
	if math.IsNaN(k) || math.IsInf(k, 0) {
		panic("rpai: keys must be finite")
	}
}

// maxPathLen bounds the root-to-leaf path of the iterative fast paths. A
// red-black tree holds height <= 2*log2(n+1); with int32 indices n < 2^31,
// that is at most 62 nodes, so 64 frames always suffice — also for a
// LevelTree delete, whose at most 61 ancestors gain two frames while it
// rotates. Decoders refuse a stream nested deeper.
const maxPathLen = 64

// insert is the single-descent iterative form of Put/Add (set selects Put
// semantics). It records the root-to-leaf path in a fixed stack, then either
//
//   - key found: mutate the value in place and recompute the subtree sums
//     bottom-up. On an existing key the recursive insert's fixUp chain
//     performs no rotations or color flips (a settled LLRB has no
//     right-leaning or doubled red links) and size/minRel/maxRel are
//     unchanged, so recomputing the sums with update's evaluation order
//     yields bit-identical state while touching nothing else; or
//   - key absent: attach a fresh red leaf and unwind the path through fixUp,
//     reattaching each (possibly rotated) subtree root to its parent — the
//     same calls the recursive insert makes, in the same order.
//
// Neither branch recurses or captures a closure; the found branch and the
// free-list-served absent branch allocate nothing.
func (t *Tree) insert(k, v float64, set bool) {
	checkKey(k)
	if t.root < 0 {
		t.root = t.alloc(k, v)
		t.nodes[t.root].color = black
		return
	}
	key := k // k itself is rebased along the descent
	var path [maxPathLen]int32
	var dirs [maxPathLen]bool // true: path[d+1] hangs off path[d].right
	var touch float64         // see prefix
	depth := 0
	i := t.root
	for {
		if depth == maxPathLen {
			// Unreachable for any slab that fits in memory (LLRB height is
			// at most 2*log2(n+1) <= 64 for n < 2^31); kept as a defensive
			// fallback to the recursive insert.
			t.root = t.ins(t.root, key, v, set)
			t.nodes[t.root].color = black
			return
		}
		n := t.nodeAt(i)
		l, r := n.left, n.right
		// Touch both children before the comparison resolves (see prefix).
		if l >= 0 {
			touch += t.nodeAt(l).key
		}
		if r >= 0 {
			touch += t.nodeAt(r).key
		}
		if k < n.key {
			path[depth], dirs[depth] = i, false
			depth++
			k -= n.key
			if l < 0 {
				c := t.alloc(k, v)
				t.nodes[i].left = c
				break
			}
			i = l
		} else if k > n.key {
			path[depth], dirs[depth] = i, true
			depth++
			k -= n.key
			if r < 0 {
				c := t.alloc(k, v)
				t.nodes[i].right = c
				break
			}
			i = r
		} else {
			if set {
				n.value = v
			} else {
				n.value += v
			}
			s := n.value + n.leftSum + n.rightSum
			// Propagate the fresh sum upward. Each ancestor caches both
			// child sums and the on-path child's fresh sum is in s, so the
			// whole unwind touches only the path nodes the descent just
			// loaded; the adds run in update's order (value, left, right),
			// keeping the floats bit-identical to a full recompute.
			for d := depth - 1; d >= 0; d-- {
				m := t.nodeAt(path[d])
				if dirs[d] {
					m.rightSum = s
					s = m.value + m.leftSum + s
				} else {
					m.leftSum = s
					s = m.value + s + m.rightSum
				}
			}
			runtime.KeepAlive(touch)
			return
		}
	}
	runtime.KeepAlive(touch)
	t.unwind(path[:depth], dirs[:depth])
}

// unwind reattaches a freshly linked leaf's ancestors deepest-first through
// fixUp — the calls the recursive insert makes on its way out, in the same
// order — and blackens the root. dirs[d] tells which side of path[d] the
// path continues on.
func (t *Tree) unwind(path []int32, dirs []bool) {
	for d := len(path) - 1; d >= 0; d-- {
		h := t.fixUp(path[d])
		switch {
		case d == 0:
			t.root = h
		case dirs[d-1]:
			t.nodes[path[d-1]].right = h
		default:
			t.nodes[path[d-1]].left = h
		}
	}
	t.nodes[t.root].color = black
}

// ins is the recursive LLRB insert (set selects Put semantics); the iterative
// insert falls back to it only past maxPathLen.
func (t *Tree) ins(h int32, k, v float64, set bool) int32 {
	if h < 0 {
		return t.alloc(k, v)
	}
	// Child calls can grow the slab, so child results are re-assigned through
	// t.nodes[h] rather than a pointer held across the call.
	hk := t.nodes[h].key
	switch {
	case k < hk:
		l := t.ins(t.nodes[h].left, k-hk, v, set)
		t.nodes[h].left = l
	case k > hk:
		r := t.ins(t.nodes[h].right, k-hk, v, set)
		t.nodes[h].right = r
	case set:
		t.nodes[h].value = v
	default:
		t.nodes[h].value += v
	}
	return t.fixUp(h)
}

// Delete removes key k and reports whether it was present. The vacated slot
// goes onto the free list for reuse by a later insert.
func (t *Tree) Delete(k float64) bool {
	if !t.Contains(k) {
		return false
	}
	t.root = t.del(t.root, k)
	if t.root >= 0 {
		t.nodes[t.root].color = black
	}
	return true
}

func (t *Tree) moveRedLeft(h int32) int32 {
	t.flipColors(h)
	if r := t.nodes[h].right; t.isRed(t.nodes[r].left) {
		t.nodes[h].right = t.rotateRight(r)
		h = t.rotateLeft(h)
		t.flipColors(h)
	}
	return h
}

func (t *Tree) moveRedRight(h int32) int32 {
	t.flipColors(h)
	if l := t.nodes[h].left; t.isRed(t.nodes[l].left) {
		h = t.rotateRight(h)
		t.flipColors(h)
	}
	return h
}

func (t *Tree) deleteMin(h int32) int32 {
	if t.nodes[h].left < 0 {
		t.freeNode(h)
		return nilIdx
	}
	if l := t.nodes[h].left; !t.isRed(l) && !t.isRed(t.nodes[l].left) {
		h = t.moveRedLeft(h)
	}
	l := t.deleteMin(t.nodes[h].left)
	t.nodes[h].left = l
	return t.fixUp(h)
}

// minOffset returns the offset of the minimum node's true key from the
// parent frame of h (i.e. the sum of stored keys down the left spine,
// including h's own), together with that node's value.
func (t *Tree) minOffset(h int32) (off, value float64) {
	off = t.nodes[h].key
	for t.nodes[h].left >= 0 {
		h = t.nodes[h].left
		off += t.nodes[h].key
	}
	return off, t.nodes[h].value
}

func (t *Tree) del(h int32, k float64) int32 {
	if k < t.nodes[h].key {
		if l := t.nodes[h].left; !t.isRed(l) && !t.isRed(t.nodes[l].left) {
			h = t.moveRedLeft(h)
		}
		l := t.del(t.nodes[h].left, k-t.nodes[h].key)
		t.nodes[h].left = l
	} else {
		if t.isRed(t.nodes[h].left) {
			h = t.rotateRight(h)
		}
		if k == t.nodes[h].key && t.nodes[h].right < 0 {
			t.freeNode(h)
			return nilIdx
		}
		if r := t.nodes[h].right; !t.isRed(r) && !t.isRed(t.nodes[r].left) {
			h = t.moveRedRight(h)
		}
		if k == t.nodes[h].key {
			// Replace h's entry with its successor (the minimum of the right
			// subtree), then delete that minimum. With relative keys the
			// successor's offset from h's parent frame is h.key plus the path
			// sum into the right subtree; moving h's key re-bases both
			// children's frames, so their stored keys are compensated.
			n := &t.nodes[h]
			off, v := t.minOffset(n.right)
			succOff := n.key + off // successor true key in h's parent frame
			shift := succOff - n.key
			n.key = succOff
			n.value = v
			if n.left >= 0 {
				t.nodes[n.left].key -= shift
			}
			t.nodes[n.right].key -= shift
			r := t.deleteMin(n.right)
			t.nodes[h].right = r
		} else {
			r := t.del(t.nodes[h].right, k-t.nodes[h].key)
			t.nodes[h].right = r
		}
	}
	return t.fixUp(h)
}

// Min returns the smallest true key, or ok=false if the tree is empty.
func (t *Tree) Min() (float64, bool) {
	if t.root < 0 {
		return 0, false
	}
	n := &t.nodes[t.root]
	return n.key + n.minRel, true
}

// Max returns the largest true key, or ok=false if the tree is empty.
func (t *Tree) Max() (float64, bool) {
	if t.root < 0 {
		return 0, false
	}
	n := &t.nodes[t.root]
	return n.key + n.maxRel, true
}

// GetSum returns the sum of values over all entries with key <= k
// (paper section 3.1, Figure 3).
func (t *Tree) GetSum(k float64) float64 { return t.prefix(k, false) }

// GetSumLess returns the sum of values over all entries with key < k.
func (t *Tree) GetSumLess(k float64) float64 { return t.prefix(k, true) }

// SuffixSum returns the sum of values over all entries with key >= k.
func (t *Tree) SuffixSum(k float64) float64 { return t.Total() - t.GetSumLess(k) }

// SuffixSumGreater returns the sum of values over all entries with key > k.
func (t *Tree) SuffixSumGreater(k float64) float64 { return t.Total() - t.GetSum(k) }

// prefix returns the sum of values over all entries with key <= k, or key < k
// when strict.
func (t *Tree) prefix(k float64, strict bool) float64 {
	var s, touch float64
	i := t.root
	for i >= 0 {
		n := t.nodeAt(i)
		l, r := n.left, n.right
		// Touch both children before the comparison resolves: the slab
		// index makes the line address available immediately, so the side
		// the descent takes is already in flight even when the branch
		// mispredicts.
		if l >= 0 {
			touch += t.nodeAt(l).key
		}
		if r >= 0 {
			touch += t.nodeAt(r).key
		}
		if k < n.key || (k == n.key && strict) {
			k -= n.key
			i = l
		} else {
			s += n.value + n.leftSum
			k -= n.key
			i = r
		}
	}
	runtime.KeepAlive(touch)
	return s
}

// ShiftKeys shifts every key strictly greater than k by d. d may be negative;
// see the package comment for the cost model.
func (t *Tree) ShiftKeys(k, d float64) { t.shift(k, d, false) }

// ShiftKeysInclusive shifts every key greater than or equal to k by d
// (the shiftKeysInclusive operation of the paper's Algorithm 4).
func (t *Tree) ShiftKeysInclusive(k, d float64) { t.shift(k, d, true) }

func (t *Tree) shift(k, d float64, inclusive bool) {
	checkKey(d)
	if t.root < 0 || d == 0 {
		return
	}
	if d < 0 {
		// Extract the keys whose shifted position would land at or below the
		// unshifted region — exactly those in (k, k-d] (or [k, k-d] for the
		// inclusive variant) — so the relative shift below cannot violate the
		// BST order. They are re-inserted at their shifted positions, merging
		// values on collision (paper section 3.2.4: an aggregate deletion
		// makes at most two keys equal, so m is at most 1 in that setting).
		// The re-inserts draw from the slots the extraction just freed, so
		// negative shifts allocate nothing at steady state.
		moved := t.extractRange(k, k-d, inclusive)
		t.shiftRel(t.root, k, d, inclusive)
		for _, e := range moved {
			t.Add(e.Key+d, e.Value)
		}
		t.scratch = moved[:0]
		return
	}
	t.shiftRel(t.root, k, d, inclusive)
}

// shiftRel is the paper's Algorithm 1: a single root-to-leaf descent that
// shifts all qualifying keys via relative-key updates. It assumes the shift
// cannot reorder keys (always true for d > 0; ensured by extractRange for
// d < 0). It never allocates, so node pointers are stable.
//
// Only one augmented field can move at each level, and it is recomputed from
// the child the descent just left (update's expression, so the same bits): a
// shift changes no value, sum or size, and the off-path subtree keeps its
// offset from this node — a qualifying node moves together with its right
// subtree, a non-qualifying one stays put with its left. The off-path child's
// cache line is never read.
func (t *Tree) shiftRel(i int32, k, d float64, inclusive bool) {
	if i < 0 {
		return
	}
	n := &t.nodes[i]
	if k < n.key || (inclusive && k == n.key) {
		t.shiftRel(n.left, k-n.key, d, inclusive)
		n.key += d
		if n.left >= 0 {
			l := &t.nodes[n.left]
			l.key -= d
			n.minRel = l.key + l.minRel
		}
	} else {
		t.shiftRel(n.right, k-n.key, d, inclusive)
		if n.right >= 0 {
			r := &t.nodes[n.right]
			n.maxRel = r.key + r.maxRel
		}
	}
}

// Entry is a (true key, value) pair: an element of the ranges a negative
// ShiftKeys extracts and re-inserts.
type Entry struct {
	Key   float64
	Value float64
}

// extractRange removes and returns all entries with key in (lo, hi], or
// [lo, hi] when inclusive is true. The returned slice aliases t.scratch and
// is only valid until the next shift.
func (t *Tree) extractRange(lo, hi float64, inclusive bool) []Entry {
	out := t.scratch[:0]
	t.collectRange(t.root, 0, lo, hi, inclusive, &out)
	for i := range out {
		t.Delete(out[i].Key)
	}
	return out
}

// collectRange appends entries with true key in the range to out. base is the
// accumulated offset of i's parent frame.
func (t *Tree) collectRange(i int32, base, lo, hi float64, inclusive bool, out *[]Entry) {
	if i < 0 {
		return
	}
	n := &t.nodes[i]
	k := base + n.key
	aboveLo := lo < k || (inclusive && lo == k)
	if aboveLo {
		t.collectRange(n.left, k, lo, hi, inclusive, out)
		if k <= hi {
			*out = append(*out, Entry{k, t.nodes[i].value})
		}
	}
	if k <= hi {
		t.collectRange(t.nodes[i].right, k, lo, hi, inclusive, out)
	}
}

// Ascend calls fn for each entry in increasing key order until fn returns
// false.
func (t *Tree) Ascend(fn func(k, v float64) bool) { t.ascend(t.root, 0, fn) }

// ascend walks the subtree at i in key order. base is the true key of i's
// parent frame.
func (t *Tree) ascend(i int32, base float64, fn func(k, v float64) bool) bool {
	if i < 0 {
		return true
	}
	n := &t.nodes[i]
	k := base + n.key
	if !t.ascend(n.left, k, fn) {
		return false
	}
	if !fn(k, n.value) {
		return false
	}
	return t.ascend(n.right, k, fn)
}

// Keys returns all true keys in increasing order. O(n); intended for tests.
func (t *Tree) Keys() []float64 {
	out := make([]float64, 0, t.Len())
	t.Ascend(func(k, _ float64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Higher returns the smallest key strictly greater than k.
func (t *Tree) Higher(k float64) (float64, bool) {
	var best, base float64
	found := false
	for i := t.root; i >= 0; {
		n := &t.nodes[i]
		base += n.key
		if base > k {
			best, found = base, true
			i = n.left
		} else {
			i = n.right
		}
	}
	return best, found
}

// Lower returns the largest key strictly less than k.
func (t *Tree) Lower(k float64) (float64, bool) {
	var best, base float64
	found := false
	for i := t.root; i >= 0; {
		n := &t.nodes[i]
		base += n.key
		if base < k {
			best, found = base, true
			i = n.right
		} else {
			i = n.left
		}
	}
	return best, found
}

// Validate checks the BST order of true keys, the LLRB shape invariants, the
// augmented size/sum/minRel/maxRel fields and the slab accounting (live nodes
// plus free-listed slots cover the slab exactly). Intended for tests and for
// decoded snapshots.
func (t *Tree) Validate() error {
	if int(t.sizeOf(t.root))+int(t.freeN) != len(t.nodes) {
		return fmt.Errorf("rpai: slab accounting: %d live + %d free != %d slots",
			t.sizeOf(t.root), t.freeN, len(t.nodes))
	}
	var freeWalk int32
	for i := t.free; i >= 0; i = t.nodes[i].left {
		freeWalk++
		if freeWalk > int32(len(t.nodes)) {
			return fmt.Errorf("rpai: free list cycles")
		}
	}
	if freeWalk != t.freeN {
		return fmt.Errorf("rpai: free list holds %d slots, counter says %d", freeWalk, t.freeN)
	}
	if t.root < 0 {
		return nil
	}
	if t.isRed(t.root) {
		return fmt.Errorf("rpai: root is red")
	}
	_, err := t.validate(t.root, 0)
	return err
}

func (t *Tree) validate(i int32, base float64) (blackHeight int, err error) {
	if i < 0 {
		return 1, nil
	}
	n := &t.nodes[i]
	k := base + n.key
	if t.isRed(n.right) {
		return 0, fmt.Errorf("rpai: right-leaning red link at key %v", k)
	}
	if n.color == red && t.isRed(n.left) {
		return 0, fmt.Errorf("rpai: two consecutive red links at key %v", k)
	}
	if n.left >= 0 {
		l := &t.nodes[n.left]
		if k+l.key+l.maxRel >= k {
			return 0, fmt.Errorf("rpai: BST order violated left of key %v", k)
		}
	}
	if n.right >= 0 {
		r := &t.nodes[n.right]
		if k+r.key+r.minRel <= k {
			return 0, fmt.Errorf("rpai: BST order violated right of key %v", k)
		}
	}
	lh, err := t.validate(n.left, k)
	if err != nil {
		return 0, err
	}
	rh, err := t.validate(n.right, k)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rpai: black height mismatch at key %v (%d vs %d)", k, lh, rh)
	}
	if n.size != 1+t.sizeOf(n.left)+t.sizeOf(n.right) {
		return 0, fmt.Errorf("rpai: size mismatch at key %v", k)
	}
	// Bits, not float equality: a cached -0 where the recomputation gives +0
	// is stale, and a read adding it could come out with the other sign.
	if math.Float64bits(n.leftSum) != math.Float64bits(t.sumOf(n.left)) {
		return 0, fmt.Errorf("rpai: leftSum mismatch at key %v: have %v want %v", k, n.leftSum, t.sumOf(n.left))
	}
	if math.Float64bits(n.rightSum) != math.Float64bits(t.sumOf(n.right)) {
		return 0, fmt.Errorf("rpai: rightSum mismatch at key %v: have %v want %v", k, n.rightSum, t.sumOf(n.right))
	}
	wantMin, wantMax := 0.0, 0.0
	if n.left >= 0 {
		l := &t.nodes[n.left]
		wantMin = l.key + l.minRel
	}
	if n.right >= 0 {
		r := &t.nodes[n.right]
		wantMax = r.key + r.maxRel
	}
	if n.minRel != wantMin || n.maxRel != wantMax {
		return 0, fmt.Errorf("rpai: min/max mismatch at key %v", k)
	}
	if n.color == black {
		blackHeight = 1
	}
	return blackHeight + lh, nil
}
