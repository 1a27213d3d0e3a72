package rpai

import (
	"fmt"
	"runtime"
	"unsafe"
)

// lanes is the payload of an arena node: one aggregate value per lane. The
// tree logic below is written once over this payload and Go stencils it per
// array shape, so the one-lane ArenaTree and the two-lane ArenaPair run the
// same rotations, rebalancing, shifts and codec — a lane of the pair sees,
// float for float, the operations a one-lane tree holding only that lane
// would see, in the same order, and therefore stays bit-identical to it.
type lanes interface {
	[1]float64 | [2]float64
}

// arena is a Relative Partial Aggregate Index with the same semantics as
// Tree, backed by a flat node slab instead of per-node heap allocations.
//
// Nodes live in a single []anode slice and refer to each other by int32
// indices (nilIdx = -1 is the null link). Delete pushes the vacated slot onto
// an intrusive free list (linked through the left field), and inserts pop
// from that list before growing the slab, so steady-state churn — the
// aggregate-maintenance workload of the paper, where every event adds and
// removes entries — allocates nothing. The hot read/update paths (get,
// prefix, and insert on an existing key) are iterative loops with no
// recursion and no closure captures; structural inserts and deletes reuse
// the recursive LLRB algorithms of Tree, ported index-for-index so the
// balancing decisions, relative-key arithmetic and floating-point evaluation
// order are bit-identical to the pointer tree. A snapshot taken from either
// implementation restores into the other and re-encodes to the same bytes.
//
// The exported methods declared on arena are the ones whose signatures do not
// mention values; ArenaTree and ArenaPair embed an arena and inherit them.
type arena[V lanes] struct {
	nodes []anode[V]
	root  int32
	free  int32 // head of the free list, linked through anode.left
	freeN int32 // number of slots on the free list
	// scratch backs extractRange during negative shifts so repeated shifts
	// reuse one buffer.
	scratch []entryOf[V]
}

// anode is the arena form of node. key is relative to the parent's true key;
// minRel and maxRel are the min/max true keys of the subtree expressed
// relative to this node's true key (0 for a leaf). With one lane it is
// exactly 64 bytes, so indexing compiles to a shift and a node never
// straddles two cache lines; with two lanes it is 88 bytes, deliberately not
// padded to 128 — the slab is the executor's resident heap.
//
// Where the pointer tree stores each node's own subtree sum, anode caches
// the two child subtree sums (leftSum/rightSum, 0 for a missing child) and
// derives its own as value + leftSum + rightSum — the exact evaluation order
// node.update uses, so every derived sum is bit-identical to the pointer
// tree's stored one. The payoff is locality: the prefix descent
// (s += value + leftSum on right turns) and the bottom-up sum propagation
// after Add/Put read only nodes already on the root-to-leaf path, never a
// sibling's cache line.
type anode[V lanes] struct {
	key      float64
	value    V
	leftSum  V
	rightSum V
	minRel   float64
	maxRel   float64
	left     int32
	right    int32
	size     int32
	color    bool
}

const nilIdx = int32(-1)

// Compile-time asserts on the two node sizes — either direction of drift
// fails the build.
var (
	_ [unsafe.Sizeof(anode[[1]float64]{}) - 64]byte
	_ [64 - unsafe.Sizeof(anode[[1]float64]{})]byte
	_ [unsafe.Sizeof(anode[[2]float64]{}) - 88]byte
	_ [88 - unsafe.Sizeof(anode[[2]float64]{})]byte
)

// The lane helpers are written lane 0 then lane 1, not as a loop: len(v) is a
// constant once the shape is stencilled, so the one-lane form compiles to the
// single float expression the pre-generic ArenaTree had, with no loop
// control in the descent. (Lane 1 goes through a variable because a constant
// index must be in range for every shape.)

// laneSum returns v + l + r per lane, in node.update's evaluation order.
func laneSum[V lanes](v, l, r V) V {
	v[0] = v[0] + l[0] + r[0]
	if len(v) == 2 {
		i := 1
		v[i] = v[i] + l[i] + r[i]
	}
	return v
}

// laneAdd returns a + b per lane.
func laneAdd[V lanes](a, b V) V {
	a[0] += b[0]
	if len(a) == 2 {
		i := 1
		a[i] += b[i]
	}
	return a
}

// laneSub returns a - b per lane.
func laneSub[V lanes](a, b V) V {
	a[0] -= b[0]
	if len(a) == 2 {
		i := 1
		a[i] -= b[i]
	}
	return a
}

// nodeAt returns the node at index i without a bounds check. The descent
// loops of the hot paths pay two checked slab accesses per level otherwise;
// indices come only from the tree's own links, which the differential
// fuzzers and Validate keep honest. i must be a live index (>= 0, < len).
// The node size is a constant once the shape is stencilled (a shift for the
// 64-byte node).
func (t *arena[V]) nodeAt(i int32) *anode[V] {
	return (*anode[V])(unsafe.Add(unsafe.Pointer(unsafe.SliceData(t.nodes)), uintptr(i)*unsafe.Sizeof(anode[V]{})))
}

func newArena[V lanes]() arena[V] { return arena[V]{root: nilIdx, free: nilIdx} }

// Len reports the number of keys in the tree.
func (t *arena[V]) Len() int { return int(t.sizeOf(t.root)) }

// total returns the per-lane sum of all values, i.e. prefix(+inf).
func (t *arena[V]) total() V { return t.sumOf(t.root) }

// Cap reports the slab capacity in nodes (live + free-listed). Intended for
// tests and benchmarks asserting on allocation behaviour.
func (t *arena[V]) Cap() int { return len(t.nodes) }

// FreeSlots reports the number of recycled slots awaiting reuse.
func (t *arena[V]) FreeSlots() int { return int(t.freeN) }

func (t *arena[V]) sizeOf(i int32) int32 {
	if i < 0 {
		return 0
	}
	return t.nodes[i].size
}

// sumOf returns the subtree sum rooted at i, derived from the cached child
// sums with node.update's evaluation order.
func (t *arena[V]) sumOf(i int32) (s V) {
	if i < 0 {
		return s
	}
	n := &t.nodes[i]
	return laneSum(n.value, n.leftSum, n.rightSum)
}

func (t *arena[V]) isRed(i int32) bool { return i >= 0 && t.nodes[i].color == red }

// alloc pops a slot off the free list, growing the slab only when the list is
// empty, and initialises it as a red leaf holding (k, v).
func (t *arena[V]) alloc(k float64, v V) int32 {
	var i int32
	if t.free >= 0 {
		i = t.free
		t.free = t.nodes[i].left
		t.freeN--
	} else {
		t.nodes = append(t.nodes, anode[V]{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = anode[V]{key: k, value: v, left: nilIdx, right: nilIdx, size: 1, color: red}
	return i
}

// freeNode pushes slot i onto the free list. The slot is cleared so stale
// float payloads cannot leak into a future Validate or Encode.
func (t *arena[V]) freeNode(i int32) {
	t.nodes[i] = anode[V]{left: t.free, right: nilIdx}
	t.free = i
	t.freeN++
}

// update recomputes size, leftSum, rightSum, minRel and maxRel from the
// children, with the same evaluation order as node.update so results are
// bit-identical.
func (t *arena[V]) update(h int32) {
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
func (t *arena[V]) rotateLeft(h int32) int32 {
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
func (t *arena[V]) rotateRight(h int32) int32 {
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

func (t *arena[V]) flipColors(h int32) {
	n := &t.nodes[h]
	n.color = !n.color
	t.nodes[n.left].color = !t.nodes[n.left].color
	t.nodes[n.right].color = !t.nodes[n.right].color
}

func (t *arena[V]) fixUp(h int32) int32 {
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

// get returns the value stored under true key k and whether k is present.
func (t *arena[V]) get(k float64) (v V, ok bool) {
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
	return v, false
}

// Contains reports whether true key k is present.
func (t *arena[V]) Contains(k float64) bool {
	_, ok := t.get(k)
	return ok
}

// maxPathLen bounds the root-to-leaf path of the iterative fast paths. A
// red-black tree holds height <= 2*log2(n+1); with int32 indices n < 2^31,
// so 64 frames always suffice.
const maxPathLen = 64

// insert is the single-descent iterative form of put/add (set selects Put
// semantics). It records the root-to-leaf path in a fixed stack, then either
//
//   - key found: mutate the value in place and recompute the subtree sums
//     bottom-up. On an existing key the recursive insert's fixUp chain
//     performs no rotations or color flips (a settled LLRB has no
//     right-leaning or doubled red links) and size/minRel/maxRel are
//     unchanged, so recomputing sum with update's exact evaluation order
//     yields bit-identical state while touching nothing else; or
//   - key absent: attach a fresh red leaf and unwind the path through fixUp,
//     reattaching each (possibly rotated) subtree root to its parent — the
//     same calls the recursive insert makes, in the same order.
//
// Neither branch recurses or captures a closure; the found branch and the
// free-list-served absent branch allocate nothing. The return value is the
// value stored under k after the call.
func (t *arena[V]) insert(k float64, v V, set bool) V {
	checkKey(k)
	if t.root < 0 {
		t.root = t.alloc(k, v)
		t.nodes[t.root].color = black
		return v
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
			out, _ := t.get(key)
			return out
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
				n.value = laneAdd(n.value, v)
			}
			out := n.value
			s := laneSum(out, n.leftSum, n.rightSum)
			// Propagate the fresh sum upward. Each ancestor caches both
			// child sums and the on-path child's fresh sum is in s, so the
			// whole unwind touches only the path nodes the descent just
			// loaded; the adds run in update's order (value, left, right),
			// keeping the floats bit-identical to a full recompute.
			for d := depth - 1; d >= 0; d-- {
				m := t.nodeAt(path[d])
				if dirs[d] {
					m.rightSum = s
					s = laneSum(m.value, m.leftSum, s)
				} else {
					m.leftSum = s
					s = laneSum(m.value, s, m.rightSum)
				}
			}
			runtime.KeepAlive(touch)
			return out
		}
	}
	runtime.KeepAlive(touch)
	t.unwind(path[:depth], dirs[:depth])
	return v
}

// unwind reattaches a freshly linked leaf's ancestors deepest-first through
// fixUp — the calls the recursive insert makes on its way out, in the same
// order — and blackens the root. dirs[d] tells which side of path[d] the
// path continues on.
func (t *arena[V]) unwind(path []int32, dirs []bool) {
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

// ins is the recursive LLRB insert (set selects Put semantics), the form
// Tree uses; the iterative insert and addMany fall back to it only past
// maxPathLen.
func (t *arena[V]) ins(h int32, k float64, v V, set bool) int32 {
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
		t.nodes[h].value = laneAdd(t.nodes[h].value, v)
	}
	return t.fixUp(h)
}

// Delete removes key k and reports whether it was present. The vacated slot
// goes onto the free list for reuse by a later insert.
func (t *arena[V]) Delete(k float64) bool {
	if !t.Contains(k) {
		return false
	}
	t.root = t.del(t.root, k)
	if t.root >= 0 {
		t.nodes[t.root].color = black
	}
	return true
}

func (t *arena[V]) moveRedLeft(h int32) int32 {
	t.flipColors(h)
	if r := t.nodes[h].right; t.isRed(t.nodes[r].left) {
		t.nodes[h].right = t.rotateRight(r)
		h = t.rotateLeft(h)
		t.flipColors(h)
	}
	return h
}

func (t *arena[V]) moveRedRight(h int32) int32 {
	t.flipColors(h)
	if l := t.nodes[h].left; t.isRed(t.nodes[l].left) {
		h = t.rotateRight(h)
		t.flipColors(h)
	}
	return h
}

func (t *arena[V]) deleteMin(h int32) int32 {
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
func (t *arena[V]) minOffset(h int32) (off float64, value V) {
	off = t.nodes[h].key
	for t.nodes[h].left >= 0 {
		h = t.nodes[h].left
		off += t.nodes[h].key
	}
	return off, t.nodes[h].value
}

func (t *arena[V]) del(h int32, k float64) int32 {
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
func (t *arena[V]) Min() (float64, bool) {
	if t.root < 0 {
		return 0, false
	}
	n := &t.nodes[t.root]
	return n.key + n.minRel, true
}

// Max returns the largest true key, or ok=false if the tree is empty.
func (t *arena[V]) Max() (float64, bool) {
	if t.root < 0 {
		return 0, false
	}
	n := &t.nodes[t.root]
	return n.key + n.maxRel, true
}

// prefix returns the per-lane sum of values over all entries with key <= k
// (paper section 3.1, Figure 3), or key < k when strict.
func (t *arena[V]) prefix(k float64, strict bool) V {
	var s V
	var touch float64
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
			s = laneAdd(s, laneAdd(n.value, n.leftSum))
			k -= n.key
			i = r
		}
	}
	runtime.KeepAlive(touch)
	return s
}

// ShiftKeys shifts every key strictly greater than k by d. d may be negative;
// see the package comment of Tree for the cost model.
func (t *arena[V]) ShiftKeys(k, d float64) { t.shift(k, d, false) }

// ShiftKeysInclusive shifts every key greater than or equal to k by d.
func (t *arena[V]) ShiftKeysInclusive(k, d float64) { t.shift(k, d, true) }

func (t *arena[V]) shift(k, d float64, inclusive bool) {
	checkKey(d)
	if t.root < 0 || d == 0 {
		return
	}
	if d < 0 {
		// As in Tree.shift: extract the keys in (k, k-d] (or [k, k-d]) whose
		// shifted position would land in the unshifted region, apply the pure
		// relative shift, and re-insert the extracted entries merged at their
		// shifted positions. The re-inserts draw from the slots the extraction
		// just freed, so negative shifts allocate nothing at steady state.
		moved := t.extractRange(k, k-d, inclusive)
		t.shiftRel(t.root, k, d, inclusive)
		for i := range moved {
			moved[i].Key += d
		}
		t.addMany(moved)
		t.scratch = moved[:0]
		return
	}
	t.shiftRel(t.root, k, d, inclusive)
}

// shiftRel is the arena form of the package-level shiftRel (the paper's
// Algorithm 1): a single root-to-leaf descent that shifts all qualifying keys
// via relative-key updates. It never allocates, so node pointers are stable.
//
// Where Tree's shiftRel ends each level with a full update, only one field
// can have moved here, and it is recomputed from the child the descent just
// left (update's expression, so the same bits): a shift changes no value, sum
// or size, and the off-path subtree keeps its offset from this node — a
// qualifying node moves together with its right subtree, a non-qualifying one
// stays put with its left. The off-path child's cache line is never read.
func (t *arena[V]) shiftRel(i int32, k, d float64, inclusive bool) {
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

// extractRange removes and returns all entries with key in (lo, hi], or
// [lo, hi] when inclusive is true. The returned slice aliases t.scratch and
// is only valid until the next shift.
func (t *arena[V]) extractRange(lo, hi float64, inclusive bool) []entryOf[V] {
	out := t.scratch[:0]
	t.collectRange(t.root, 0, lo, hi, inclusive, &out)
	for i := range out {
		t.Delete(out[i].Key)
	}
	return out
}

// collectRange appends entries with true key in the range to out. base is the
// accumulated offset of i's parent frame.
func (t *arena[V]) collectRange(i int32, base, lo, hi float64, inclusive bool, out *[]entryOf[V]) {
	if i < 0 {
		return
	}
	n := &t.nodes[i]
	k := base + n.key
	aboveLo := lo < k || (inclusive && lo == k)
	if aboveLo {
		t.collectRange(n.left, k, lo, hi, inclusive, out)
		if k <= hi {
			*out = append(*out, entryOf[V]{k, t.nodes[i].value})
		}
	}
	if k <= hi {
		t.collectRange(t.nodes[i].right, k, lo, hi, inclusive, out)
	}
}

// ascend calls fn for each entry of the subtree at i in increasing key order
// until fn returns false. base is the true key of i's parent frame.
func (t *arena[V]) ascend(i int32, base float64, fn func(k float64, v V) bool) bool {
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
func (t *arena[V]) Keys() []float64 {
	out := make([]float64, 0, t.Len())
	t.ascend(t.root, 0, func(k float64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Rank returns the number of entries with key <= k.
func (t *arena[V]) Rank(k float64) int {
	var c int32
	i := t.root
	for i >= 0 {
		n := &t.nodes[i]
		if k < n.key {
			k -= n.key
			i = n.left
		} else {
			c += 1 + t.sizeOf(n.left)
			k -= n.key
			i = n.right
		}
	}
	return int(c)
}

// kth returns the i-th smallest key (0-based) and its value. ok is false
// when i is out of range. O(log n) via the size augmentation.
func (t *arena[V]) kth(i int) (key float64, value V, ok bool) {
	if i < 0 || i >= t.Len() {
		return 0, value, false
	}
	h := t.root
	var base float64
	for {
		n := &t.nodes[h]
		ls := int(t.sizeOf(n.left))
		switch {
		case i < ls:
			base += n.key
			h = n.left
		case i == ls:
			return base + n.key, n.value, true
		default:
			i -= ls + 1
			base += n.key
			h = n.right
		}
	}
}

// Higher returns the smallest key strictly greater than k.
func (t *arena[V]) Higher(k float64) (float64, bool) {
	var best float64
	found := false
	i := t.root
	var base float64
	for i >= 0 {
		n := &t.nodes[i]
		cur := base + n.key
		if cur > k {
			best, found = cur, true
			base = cur
			i = n.left
		} else {
			base = cur
			i = n.right
		}
	}
	return best, found
}

// Lower returns the largest key strictly less than k.
func (t *arena[V]) Lower(k float64) (float64, bool) {
	var best float64
	found := false
	i := t.root
	var base float64
	for i >= 0 {
		n := &t.nodes[i]
		cur := base + n.key
		if cur < k {
			best, found = cur, true
			base = cur
			i = n.right
		} else {
			base = cur
			i = n.left
		}
	}
	return best, found
}

// Validate checks the BST order of true keys, the LLRB shape invariants, the
// augmented size/sum/minRel/maxRel fields and the slab accounting (live nodes
// plus free-listed slots cover the arena exactly). Intended for tests.
func (t *arena[V]) Validate() error {
	if int(t.sizeOf(t.root))+int(t.freeN) != len(t.nodes) {
		return fmt.Errorf("rpai: arena accounting: %d live + %d free != %d slots",
			t.sizeOf(t.root), t.freeN, len(t.nodes))
	}
	var freeWalk int32
	for i := t.free; i >= 0; i = t.nodes[i].left {
		freeWalk++
		if freeWalk > int32(len(t.nodes)) {
			return fmt.Errorf("rpai: arena free list cycles")
		}
	}
	if freeWalk != t.freeN {
		return fmt.Errorf("rpai: arena free list holds %d slots, counter says %d", freeWalk, t.freeN)
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

func (t *arena[V]) validate(i int32, base float64) (blackHeight int, err error) {
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
	if n.leftSum != t.sumOf(n.left) {
		return 0, fmt.Errorf("rpai: leftSum mismatch at key %v: have %v want %v", k, n.leftSum, t.sumOf(n.left))
	}
	if n.rightSum != t.sumOf(n.right) {
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
