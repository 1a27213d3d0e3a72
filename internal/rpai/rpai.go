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
// Every node also maintains the sum of the values in its subtree (serving
// GetSum) and the minimum and maximum true key of its subtree expressed
// relative to the node (serving validation and the reference algorithms).
//
// Tree, ArenaTree (the same tree on a flat slab) and Reference are the
// paper's structure, the subject of Table 1, Figure 7 and the ablations.
// The engine serves correlated predicates from LevelTree instead: the same
// index with its relative keys made implicit, ordered by the correlation
// column and searched by accumulated weight, so an event costs one descent
// and no ShiftKeys (see levels.go).
package rpai

import (
	"fmt"
	"math"
)

const (
	red   = true
	black = false
)

// node is an LLRB node. key is relative to the parent's true key; minRel and
// maxRel are the min/max true keys of the subtree expressed relative to this
// node's true key (0 for a leaf).
type node struct {
	key    float64
	value  float64
	left   *node
	right  *node
	color  bool
	size   int
	sum    float64
	minRel float64
	maxRel float64
}

// Tree is a Relative Partial Aggregate Index. The zero value is not usable;
// call New.
type Tree struct {
	root *node
}

// New returns an empty RPAI tree.
func New() *Tree { return &Tree{} }

// Len reports the number of keys in the tree.
func (t *Tree) Len() int { return t.root.sizeOf() }

// Total returns the sum of all values in the tree, i.e. GetSum(+inf).
func (t *Tree) Total() float64 { return t.root.sumOf() }

func (n *node) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) sumOf() float64 {
	if n == nil {
		return 0
	}
	return n.sum
}

func isRed(n *node) bool { return n != nil && n.color == red }

// update recomputes size, sum, minRel and maxRel from the children. It must
// be called whenever children or stored keys change.
func (n *node) update() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
	n.sum = n.value + n.left.sumOf() + n.right.sumOf()
	n.minRel = 0
	if n.left != nil {
		n.minRel = n.left.key + n.left.minRel
	}
	n.maxRel = 0
	if n.right != nil {
		n.maxRel = n.right.key + n.right.maxRel
	}
}

// rotateLeft rotates h's right child above h, re-expressing the stored
// relative keys so that every true key is unchanged.
func rotateLeft(h *node) *node {
	x := h.right
	hk, xk := h.key, x.key
	x.key = hk + xk
	h.key = -xk
	if x.left != nil {
		x.left.key += xk
	}
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	h.update()
	x.update()
	return x
}

// rotateRight rotates h's left child above h, preserving true keys.
func rotateRight(h *node) *node {
	x := h.left
	hk, xk := h.key, x.key
	x.key = hk + xk
	h.key = -xk
	if x.right != nil {
		x.right.key += xk
	}
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	h.update()
	x.update()
	return x
}

func flipColors(h *node) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}

func fixUp(h *node) *node {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	h.update()
	return h
}

// Get returns the value stored under true key k and whether k is present.
func (t *Tree) Get(k float64) (float64, bool) {
	n := t.root
	for n != nil {
		switch {
		case k < n.key:
			k -= n.key
			n = n.left
		case k > n.key:
			k -= n.key
			n = n.right
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
func (t *Tree) Put(k, v float64) {
	checkKey(k)
	t.root = put(t.root, k, v)
	t.root.color = black
}

// checkKey rejects keys that would silently corrupt the relative-key
// arithmetic: NaN breaks every comparison, and infinities collapse under the
// subtraction chains the parent-relative representation uses.
func checkKey(k float64) {
	if math.IsNaN(k) || math.IsInf(k, 0) {
		panic("rpai: keys must be finite")
	}
}

func put(h *node, k, v float64) *node {
	if h == nil {
		n := &node{key: k, value: v, color: red}
		n.update()
		return n
	}
	switch {
	case k < h.key:
		h.left = put(h.left, k-h.key, v)
	case k > h.key:
		h.right = put(h.right, k-h.key, v)
	default:
		h.value = v
	}
	return fixUp(h)
}

// Add adds dv to the value stored under k, inserting k with value dv if
// absent. Zero-valued entries remain present; use Delete to drop a key.
func (t *Tree) Add(k, dv float64) {
	checkKey(k)
	t.root = add(t.root, k, dv)
	t.root.color = black
}

func add(h *node, k, dv float64) *node {
	if h == nil {
		n := &node{key: k, value: dv, color: red}
		n.update()
		return n
	}
	switch {
	case k < h.key:
		h.left = add(h.left, k-h.key, dv)
	case k > h.key:
		h.right = add(h.right, k-h.key, dv)
	default:
		h.value += dv
	}
	return fixUp(h)
}

// Delete removes key k and reports whether it was present.
func (t *Tree) Delete(k float64) bool {
	if !t.Contains(k) {
		return false
	}
	t.root = del(t.root, k)
	if t.root != nil {
		t.root.color = black
	}
	return true
}

func moveRedLeft(h *node) *node {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight(h *node) *node {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func deleteMin(h *node) *node {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

// minOffset returns the offset of the minimum node's true key from the
// parent frame of h (i.e. the sum of stored keys down the left spine,
// including h's own), together with that node's value.
func minOffset(h *node) (off, value float64) {
	off = h.key
	for h.left != nil {
		h = h.left
		off += h.key
	}
	return off, h.value
}

func del(h *node, k float64) *node {
	if k < h.key {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = del(h.left, k-h.key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if k == h.key && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if k == h.key {
			// Replace h's entry with its successor (the minimum of the right
			// subtree), then delete that minimum. With relative keys the
			// successor's offset from h's parent frame is h.key plus the path
			// sum into the right subtree; moving h's key re-bases both
			// children's frames, so their stored keys are compensated.
			off, v := minOffset(h.right)
			succOff := h.key + off // successor true key in h's parent frame
			shift := succOff - h.key
			h.key = succOff
			h.value = v
			if h.left != nil {
				h.left.key -= shift
			}
			h.right.key -= shift
			h.right = deleteMin(h.right)
		} else {
			h.right = del(h.right, k-h.key)
		}
	}
	return fixUp(h)
}

// Min returns the smallest true key, or ok=false if the tree is empty.
func (t *Tree) Min() (float64, bool) {
	if t.root == nil {
		return 0, false
	}
	return t.root.key + t.root.minRel, true
}

// Max returns the largest true key, or ok=false if the tree is empty.
func (t *Tree) Max() (float64, bool) {
	if t.root == nil {
		return 0, false
	}
	return t.root.key + t.root.maxRel, true
}

// GetSum returns the sum of values over all entries with key <= k
// (paper section 3.1, Figure 3).
func (t *Tree) GetSum(k float64) float64 {
	var s float64
	n := t.root
	for n != nil {
		if k < n.key {
			k -= n.key
			n = n.left
		} else {
			s += n.value + n.left.sumOf()
			k -= n.key
			n = n.right
		}
	}
	return s
}

// GetSumLess returns the sum of values over all entries with key < k.
func (t *Tree) GetSumLess(k float64) float64 {
	var s float64
	n := t.root
	for n != nil {
		if k <= n.key {
			k -= n.key
			n = n.left
		} else {
			s += n.value + n.left.sumOf()
			k -= n.key
			n = n.right
		}
	}
	return s
}

// SuffixSum returns the sum of values over all entries with key >= k.
func (t *Tree) SuffixSum(k float64) float64 { return t.Total() - t.GetSumLess(k) }

// SuffixSumGreater returns the sum of values over all entries with key > k.
func (t *Tree) SuffixSumGreater(k float64) float64 { return t.Total() - t.GetSum(k) }

// ShiftKeys shifts every key strictly greater than k by d. d may be negative;
// see the package comment for the cost model.
func (t *Tree) ShiftKeys(k, d float64) { t.shift(k, d, false) }

// ShiftKeysInclusive shifts every key greater than or equal to k by d
// (the shiftKeysInclusive operation of the paper's Algorithm 4).
func (t *Tree) ShiftKeysInclusive(k, d float64) { t.shift(k, d, true) }

func (t *Tree) shift(k, d float64, inclusive bool) {
	checkKey(d)
	if t.root == nil || d == 0 {
		return
	}
	if d < 0 {
		// Extract the keys whose shifted position would land at or below the
		// unshifted region — exactly those in (k, k-d] (or [k, k-d] for the
		// inclusive variant) — so the relative shift below cannot violate the
		// BST order. They are re-inserted at their shifted positions, merging
		// values on collision (paper section 3.2.4: an aggregate deletion
		// makes at most two keys equal, so m is at most 1 in that setting).
		moved := t.extractRange(k, k-d, inclusive)
		shiftRel(t.root, k, d, inclusive)
		for i := range moved {
			moved[i].Key += d
		}
		t.AddMany(moved)
		return
	}
	shiftRel(t.root, k, d, inclusive)
}

// shiftRel is the paper's Algorithm 1: a single root-to-leaf descent that
// shifts all qualifying keys via relative-key updates. It assumes the shift
// cannot reorder keys (always true for d > 0; ensured by extractRange for
// d < 0).
func shiftRel(n *node, k, d float64, inclusive bool) {
	if n == nil {
		return
	}
	qualifies := k < n.key || (inclusive && k == n.key)
	if qualifies {
		shiftRel(n.left, k-n.key, d, inclusive)
		n.key += d
		if n.left != nil {
			n.left.key -= d
		}
	} else {
		shiftRel(n.right, k-n.key, d, inclusive)
	}
	n.update()
}

// extractRange removes and returns all entries with key in (lo, hi], or
// [lo, hi] when inclusive is true. hi >= lo is required.
func (t *Tree) extractRange(lo, hi float64, inclusive bool) []Entry {
	var out []Entry
	collectRange(t.root, 0, lo, hi, inclusive, &out)
	for _, e := range out {
		t.Delete(e.Key)
	}
	return out
}

// collectRange appends entries with true key in the range to out. base is the
// accumulated offset of n's parent frame.
func collectRange(n *node, base, lo, hi float64, inclusive bool, out *[]Entry) {
	if n == nil {
		return
	}
	k := base + n.key
	aboveLo := lo < k || (inclusive && lo == k)
	if aboveLo {
		collectRange(n.left, k, lo, hi, inclusive, out)
		if k <= hi {
			*out = append(*out, Entry{k, n.value})
		}
	}
	if k <= hi {
		collectRange(n.right, k, lo, hi, inclusive, out)
	}
}

// Ascend calls fn for each entry in increasing key order until fn returns
// false.
func (t *Tree) Ascend(fn func(k, v float64) bool) { ascend(t.root, 0, fn) }

func ascend(n *node, base float64, fn func(k, v float64) bool) bool {
	if n == nil {
		return true
	}
	k := base + n.key
	if !ascend(n.left, k, fn) {
		return false
	}
	if !fn(k, n.value) {
		return false
	}
	return ascend(n.right, k, fn)
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

// Validate checks the BST order of true keys, the LLRB shape invariants and
// the augmented size/sum/minRel/maxRel fields. Intended for tests.
func (t *Tree) Validate() error {
	if t.root == nil {
		return nil
	}
	if isRed(t.root) {
		return fmt.Errorf("rpai: root is red")
	}
	_, err := validate(t.root, 0)
	return err
}

func validate(n *node, base float64) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	k := base + n.key
	if isRed(n.right) {
		return 0, fmt.Errorf("rpai: right-leaning red link at key %v", k)
	}
	if isRed(n) && isRed(n.left) {
		return 0, fmt.Errorf("rpai: two consecutive red links at key %v", k)
	}
	if n.left != nil && k+n.left.key+n.left.maxRel >= k {
		return 0, fmt.Errorf("rpai: BST order violated left of key %v", k)
	}
	if n.right != nil && k+n.right.key+n.right.minRel <= k {
		return 0, fmt.Errorf("rpai: BST order violated right of key %v", k)
	}
	lh, err := validate(n.left, k)
	if err != nil {
		return 0, err
	}
	rh, err := validate(n.right, k)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rpai: black height mismatch at key %v (%d vs %d)", k, lh, rh)
	}
	if n.size != 1+n.left.sizeOf()+n.right.sizeOf() {
		return 0, fmt.Errorf("rpai: size mismatch at key %v", k)
	}
	if want := n.value + n.left.sumOf() + n.right.sumOf(); n.sum != want {
		return 0, fmt.Errorf("rpai: sum mismatch at key %v: have %v want %v", k, n.sum, want)
	}
	wantMin, wantMax := 0.0, 0.0
	if n.left != nil {
		wantMin = n.left.key + n.left.minRel
	}
	if n.right != nil {
		wantMax = n.right.key + n.right.maxRel
	}
	if n.minRel != wantMin || n.maxRel != wantMax {
		return 0, fmt.Errorf("rpai: min/max mismatch at key %v", k)
	}
	if !isRed(n) {
		blackHeight = 1
	}
	return blackHeight + lh, nil
}

// Rank returns the number of entries with key <= k.
func (t *Tree) Rank(k float64) int {
	var c int
	n := t.root
	for n != nil {
		if k < n.key {
			k -= n.key
			n = n.left
		} else {
			c += 1 + n.left.sizeOf()
			k -= n.key
			n = n.right
		}
	}
	return c
}

// Kth returns the i-th smallest key (0-based) and its value. ok is false
// when i is out of range. O(log n) via the size augmentation.
func (t *Tree) Kth(i int) (key, value float64, ok bool) {
	if i < 0 || i >= t.Len() {
		return 0, 0, false
	}
	n := t.root
	var base float64
	for {
		ls := n.left.sizeOf()
		switch {
		case i < ls:
			base += n.key
			n = n.left
		case i == ls:
			return base + n.key, n.value, true
		default:
			i -= ls + 1
			base += n.key
			n = n.right
		}
	}
}

// Higher returns the smallest key strictly greater than k.
func (t *Tree) Higher(k float64) (float64, bool) {
	var best float64
	found := false
	n := t.root
	var base float64
	for n != nil {
		cur := base + n.key
		if cur > k {
			best, found = cur, true
			base = cur
			n = n.left
		} else {
			base = cur
			n = n.right
		}
	}
	return best, found
}

// Lower returns the largest key strictly less than k.
func (t *Tree) Lower(k float64) (float64, bool) {
	var best float64
	found := false
	n := t.root
	var base float64
	for n != nil {
		cur := base + n.key
		if cur < k {
			best, found = cur, true
			base = cur
			n = n.right
		} else {
			base = cur
			n = n.left
		}
	}
	return best, found
}
