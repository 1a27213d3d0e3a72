// Package treemap implements a sum-augmented ordered map based on a
// left-leaning red-black tree (LLRB, Sedgewick 2008).
//
// Keys are float64 column values (prices, volumes, quantities) and values are
// float64 aggregates. Every node additionally maintains the number of entries
// and the sum of values in its subtree, so the map answers prefix-sum queries
// ("sum of all values whose key <= k") and rank queries in O(log n). They are
// the free/bound maps of the hand-written executors of package queries
// (SIGMOD '22, section 4.2; PSP, Q17 and the other ordered aggregates keyed
// by column values).
//
// The treemap is paper-side only. The served engine keeps its ordered state —
// the general algorithm's bound maps included — in rpai.LevelTree, and the
// serving build must not link this package (make lint checks it).
//
// Unlike the RPAI tree (package rpai), keys here are stored absolutely: this
// structure does not support key shifting.
package treemap

import "fmt"

const (
	red   = true
	black = false
)

type node struct {
	key    float64
	value  float64
	left   *node
	right  *node
	color  bool // color of the link from the parent
	size   int
	sum    float64
	minKey float64
	maxKey float64
}

// Tree is a sum-augmented ordered map from float64 keys to float64 values.
// The zero value is not usable; call New.
type Tree struct {
	root *node
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len reports the number of entries.
func (t *Tree) Len() int { return t.root.sizeOf() }

// Total returns the sum of all values in the map.
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

// update recomputes the augmented fields of n from its children.
func (n *node) update() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
	n.sum = n.value + n.left.sumOf() + n.right.sumOf()
	n.minKey = n.key
	if n.left != nil {
		n.minKey = n.left.minKey
	}
	n.maxKey = n.key
	if n.right != nil {
		n.maxKey = n.right.maxKey
	}
}

func rotateLeft(h *node) *node {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	h.update()
	x.update()
	return x
}

func rotateRight(h *node) *node {
	x := h.left
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

// Get returns the value stored under k, and whether k is present.
func (t *Tree) Get(k float64) (float64, bool) {
	n := t.root
	for n != nil {
		switch {
		case k < n.key:
			n = n.left
		case k > n.key:
			n = n.right
		default:
			return n.value, true
		}
	}
	return 0, false
}

// Contains reports whether k is present.
func (t *Tree) Contains(k float64) bool {
	_, ok := t.Get(k)
	return ok
}

// Put stores v under k, replacing any existing value.
func (t *Tree) Put(k, v float64) {
	t.root = put(t.root, k, v)
	t.root.color = black
}

func put(h *node, k, v float64) *node {
	if h == nil {
		n := &node{key: k, value: v, color: red}
		n.update()
		return n
	}
	switch {
	case k < h.key:
		h.left = put(h.left, k, v)
	case k > h.key:
		h.right = put(h.right, k, v)
	default:
		h.value = v
	}
	return fixUp(h)
}

// maxPathLen bounds the root-to-node path Add's single descent records.
// A red-black tree holds height <= 2*log2(n+1), so 64 frames cover any tree
// that fits in memory; a deeper path falls back to the recursive form.
const maxPathLen = 64

// Add adds dv to the value stored under k, inserting the key with value dv if
// absent. The entry remains present even if its value becomes zero; callers
// that want to drop empty entries should Delete explicitly.
//
// An existing key costs one iterative descent: the value is bumped in place
// and the subtree sums recomputed up the recorded path. That is bit-identical
// to the recursive put, whose fixUp chain on a settled LLRB rotates and
// recolours nothing for an existing key and leaves size/minKey/maxKey as they
// were — only sum changes, and it is recomputed here with update's own
// expression.
func (t *Tree) Add(k, dv float64) {
	var path [maxPathLen]*node
	depth := 0
	for n := t.root; n != nil && depth < maxPathLen; {
		switch {
		case k < n.key:
			path[depth] = n
			depth++
			n = n.left
		case k > n.key:
			path[depth] = n
			depth++
			n = n.right
		default:
			n.value += dv
			n.sum = n.value + n.left.sumOf() + n.right.sumOf()
			for d := depth - 1; d >= 0; d-- {
				p := path[d]
				p.sum = p.value + p.left.sumOf() + p.right.sumOf()
			}
			return
		}
	}
	// An absent key (the insert rebalances) or a path deeper than
	// maxPathLen: Get and the recursive Put.
	if v, ok := t.Get(k); ok {
		t.Put(k, v+dv)
		return
	}
	t.Put(k, dv)
}

// Delete removes k and reports whether it was present.
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

func minNode(h *node) *node {
	for h.left != nil {
		h = h.left
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

func del(h *node, k float64) *node {
	if k < h.key {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = del(h.left, k)
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
			m := minNode(h.right)
			h.key = m.key
			h.value = m.value
			h.right = deleteMin(h.right)
		} else {
			h.right = del(h.right, k)
		}
	}
	return fixUp(h)
}

// Min returns the smallest key, or ok=false if the map is empty.
func (t *Tree) Min() (float64, bool) {
	if t.root == nil {
		return 0, false
	}
	return t.root.minKey, true
}

// Max returns the largest key, or ok=false if the map is empty.
func (t *Tree) Max() (float64, bool) {
	if t.root == nil {
		return 0, false
	}
	return t.root.maxKey, true
}

// PrefixSum returns the sum of values over all entries with key <= k.
func (t *Tree) PrefixSum(k float64) float64 {
	var s float64
	n := t.root
	for n != nil {
		if k < n.key {
			n = n.left
		} else {
			s += n.value + n.left.sumOf()
			n = n.right
		}
	}
	return s
}

// PrefixSumLess returns the sum of values over all entries with key < k.
func (t *Tree) PrefixSumLess(k float64) float64 {
	var s float64
	n := t.root
	for n != nil {
		if k <= n.key {
			n = n.left
		} else {
			s += n.value + n.left.sumOf()
			n = n.right
		}
	}
	return s
}

// SuffixSum returns the sum of values over all entries with key >= k.
func (t *Tree) SuffixSum(k float64) float64 {
	return t.Total() - t.PrefixSumLess(k)
}

// SuffixSumGreater returns the sum of values over all entries with key > k.
func (t *Tree) SuffixSumGreater(k float64) float64 {
	return t.Total() - t.PrefixSum(k)
}

// Ascend calls fn for each entry in increasing key order until fn returns
// false.
func (t *Tree) Ascend(fn func(k, v float64) bool) { ascend(t.root, fn) }

func ascend(n *node, fn func(k, v float64) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return ascend(n.right, fn)
}

// Keys returns all keys in increasing order. Intended for tests and small
// maps; O(n).
func (t *Tree) Keys() []float64 {
	out := make([]float64, 0, t.Len())
	t.Ascend(func(k, _ float64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Validate checks the BST order, LLRB shape invariants and the augmented
// size/sum/min/max fields. It returns a descriptive error on the first
// violation found. Intended for tests.
func (t *Tree) Validate() error {
	if t.root == nil {
		return nil
	}
	if isRed(t.root) {
		return fmt.Errorf("treemap: root is red")
	}
	_, err := validate(t.root)
	return err
}

func validate(n *node) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	if isRed(n.right) {
		return 0, fmt.Errorf("treemap: right-leaning red link at key %v", n.key)
	}
	if isRed(n) && isRed(n.left) {
		return 0, fmt.Errorf("treemap: two consecutive red links at key %v", n.key)
	}
	if n.left != nil && n.left.maxKey >= n.key {
		return 0, fmt.Errorf("treemap: BST order violated left of key %v", n.key)
	}
	if n.right != nil && n.right.minKey <= n.key {
		return 0, fmt.Errorf("treemap: BST order violated right of key %v", n.key)
	}
	lh, err := validate(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := validate(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("treemap: black height mismatch at key %v (%d vs %d)", n.key, lh, rh)
	}
	if n.size != 1+n.left.sizeOf()+n.right.sizeOf() {
		return 0, fmt.Errorf("treemap: size mismatch at key %v", n.key)
	}
	want := n.value + n.left.sumOf() + n.right.sumOf()
	if n.sum != want {
		return 0, fmt.Errorf("treemap: sum mismatch at key %v: have %v want %v", n.key, n.sum, want)
	}
	wantMin, wantMax := n.key, n.key
	if n.left != nil {
		wantMin = n.left.minKey
	}
	if n.right != nil {
		wantMax = n.right.maxKey
	}
	if n.minKey != wantMin || n.maxKey != wantMax {
		return 0, fmt.Errorf("treemap: min/max mismatch at key %v", n.key)
	}
	if !isRed(n) {
		blackHeight = 1
	}
	return blackHeight + lh, nil
}

// Higher returns the smallest key strictly greater than k.
func (t *Tree) Higher(k float64) (float64, bool) {
	var best float64
	found := false
	n := t.root
	for n != nil {
		if n.key > k {
			best, found = n.key, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return best, found
}

// FirstPrefixGreater returns the smallest key k* such that PrefixSum(k*)
// exceeds th, in O(log n). It requires all values to be non-negative (prefix
// sums monotone in the key), which holds for the volume maps the executors
// maintain. ok is false when even the total does not exceed th.
func (t *Tree) FirstPrefixGreater(th float64) (float64, bool) {
	if t.root == nil || t.root.sum <= th {
		return 0, false
	}
	n := t.root
	for {
		ls := n.left.sumOf()
		switch {
		case ls > th:
			n = n.left
		case ls+n.value > th:
			return n.key, true
		default:
			th -= ls + n.value
			n = n.right
		}
	}
}

// AscendRange calls fn for each entry with key in [lo, hi), in increasing
// order, until fn returns false.
func (t *Tree) AscendRange(lo, hi float64, fn func(k, v float64) bool) {
	ascendRange(t.root, lo, hi, fn)
}

func ascendRange(n *node, lo, hi float64, fn func(k, v float64) bool) bool {
	if n == nil {
		return true
	}
	if n.key >= lo {
		if !ascendRange(n.left, lo, hi, fn) {
			return false
		}
		if n.key < hi && !fn(n.key, n.value) {
			return false
		}
	}
	if n.key < hi {
		return ascendRange(n.right, lo, hi, fn)
	}
	return true
}

// RangeSum returns the sum of values over entries with key in [lo, hi).
func (t *Tree) RangeSum(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return t.PrefixSumLess(hi) - t.PrefixSumLess(lo)
}

// SuffixSumFrom returns the sum of values over entries with key >= lo,
// i.e. RangeSum(lo, +inf).
func (t *Tree) SuffixSumFrom(lo float64) float64 { return t.Total() - t.PrefixSumLess(lo) }
