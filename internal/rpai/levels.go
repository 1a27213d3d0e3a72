package rpai

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"unsafe"
)

// LevelTree is the maintained state of one correlated predicate (the per-level
// index of the paper's Algorithm 4): an ordered map from an absolute level key
// — the correlation column — to three lanes, the level's summed inner weight,
// its live-row count and its summed aggregate term.
//
// It is an RPAI with the relative keys made implicit. An RPAI keys each level
// by the running sum of the weights (the correlated aggregate's value at that
// level), so a weight change at one level moves the key of every later one
// and each event pays a ShiftKeys. Here the running sum is never stored: it is
// the weight lane's prefix sum, accumulated on the way down a read. An event
// is one descent by key that adds to one node's lanes; the shift of every
// later level is the changed subtree sums of the weight lane. A threshold
// read steers by accumulated weight (SteerWeightThrough, SteerWeightBefore)
// where an RPAI read steers by its stored key, and sums the count and term
// lanes of the levels it passes.
//
// Keys are absolute because a lookup must find a level by its exact column
// value: a relative key is re-derived by float arithmetic on the way down and
// cannot round-trip an arbitrary value. A level exists while its count is
// non-zero: Add inserts it on its first contribution and deletes it when the
// count returns to 0.
//
// Storage is Tree's: one slab of nodes linked by int32 indices, vacated
// slots recycled through a free list, so steady-state churn allocates nothing.
// The balancing is Tree's LLRB with the relative-key arithmetic left
// out, and every node caches its children's lane sums (leftSum, rightSum)
// so a descent reads only nodes on its path.
//
// The zero value is not usable; call NewLevelTree.
type LevelTree struct {
	nodes []lnode
	root  int32
	free  int32 // head of the free list, linked through lnode.left
	freeN int32 // number of slots on the free list
}

// Lanes of a LevelTree node.
const (
	laneW = 0 // summed inner weight
	laneC = 1 // live-row count
	laneT = 2 // summed aggregate term
)

// sum3 returns v + l + r per lane, in update's evaluation order.
func sum3(v, l, r [3]float64) [3]float64 {
	return [3]float64{v[0] + l[0] + r[0], v[1] + l[1] + r[1], v[2] + l[2] + r[2]}
}

// add3 returns a + b per lane.
func add3(a, b [3]float64) [3]float64 {
	return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
}

// lnode is one level. The fields a key descent reads come first.
type lnode struct {
	key      float64
	left     int32
	right    int32
	val      [3]float64 // weight, count, term
	leftSum  [3]float64 // lane sums of the left subtree (0 when absent)
	rightSum [3]float64 // lane sums of the right subtree
	red      bool
}

// A level takes 96 bytes, where the treemap node and two-lane RPAI node it
// replaced took 80 + 88. Either direction of drift fails the build.
var (
	_ [unsafe.Sizeof(lnode{}) - 96]byte
	_ [96 - unsafe.Sizeof(lnode{})]byte
)

// Steer names what a prefix read compares its bound with at each level.
type Steer uint8

const (
	// SteerKey compares the level's key.
	SteerKey Steer = iota
	// SteerWeightThrough compares the weight summed over the level and every
	// level before it: the RPAI key of an inclusive correlation (<=, >=).
	SteerWeightThrough
	// SteerWeightBefore compares the weight summed over the levels before
	// it: the RPAI key of a strict correlation (<, >).
	SteerWeightBefore
)

// NewLevelTree returns an empty tree.
func NewLevelTree() *LevelTree { return &LevelTree{root: nilIdx, free: nilIdx} }

// Len reports the number of levels.
func (t *LevelTree) Len() int { return len(t.nodes) - int(t.freeN) }

// at returns the node at live index i without a bounds check (see
// Tree.nodeAt).
func (t *LevelTree) at(i int32) *lnode {
	return (*lnode)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(t.nodes)), uintptr(i)*unsafe.Sizeof(lnode{})))
}

func (t *LevelTree) isRed(i int32) bool { return i >= 0 && t.nodes[i].red }

// sumOf returns the lane sums of the subtree rooted at i.
func (t *LevelTree) sumOf(i int32) (s [3]float64) {
	if i < 0 {
		return s
	}
	n := &t.nodes[i]
	return sum3(n.val, n.leftSum, n.rightSum)
}

// Total returns each lane summed over every level.
func (t *LevelTree) Total() (w, cnt, sum float64) {
	s := t.sumOf(t.root)
	return s[laneW], s[laneC], s[laneT]
}

// alloc pops a slot off the free list, growing the slab only when the list is
// empty, and initialises it as a red leaf.
func (t *LevelTree) alloc(k float64, v [3]float64) int32 {
	var i int32
	if t.free >= 0 {
		i = t.free
		t.free = t.nodes[i].left
		t.freeN--
	} else {
		t.nodes = append(t.nodes, lnode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = lnode{key: k, val: v, left: nilIdx, right: nilIdx, red: true}
	return i
}

// freeNode clears slot i and pushes it onto the free list.
func (t *LevelTree) freeNode(i int32) {
	t.nodes[i] = lnode{left: t.free, right: nilIdx}
	t.free = i
	t.freeN++
}

func (t *LevelTree) update(h int32) {
	n := &t.nodes[h]
	n.leftSum = t.sumOf(n.left)
	n.rightSum = t.sumOf(n.right)
}

func (t *LevelTree) rotateLeft(h int32) int32 {
	hn := &t.nodes[h]
	x := hn.right
	xn := &t.nodes[x]
	hn.right = xn.left
	xn.left = h
	xn.red = hn.red
	hn.red = true
	t.update(h)
	t.update(x)
	return x
}

func (t *LevelTree) rotateRight(h int32) int32 {
	hn := &t.nodes[h]
	x := hn.left
	xn := &t.nodes[x]
	hn.left = xn.right
	xn.right = h
	xn.red = hn.red
	hn.red = true
	t.update(h)
	t.update(x)
	return x
}

func (t *LevelTree) flipColors(h int32) {
	n := &t.nodes[h]
	n.red = !n.red
	t.nodes[n.left].red = !t.nodes[n.left].red
	t.nodes[n.right].red = !t.nodes[n.right].red
}

func (t *LevelTree) fixUp(h int32) int32 {
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

// Add adds (dw, dc, dt) to the weight, count and term lanes of level k in one
// descent. An absent level is inserted (unless dc is 0: a level exists only
// while its count is non-zero), and a level whose count returns to 0 is
// deleted. k must be finite.
func (t *LevelTree) Add(k, dw, dc, dt float64) {
	checkKey(k)
	d := [3]float64{dw, dc, dt}
	if t.root < 0 {
		if dc != 0 {
			t.root = t.alloc(k, d)
			t.nodes[t.root].red = false
		}
		return
	}
	// An LLRB over fewer than 2^31 nodes is at most 62 levels deep.
	var path [maxPathLen]int32
	var dirs [maxPathLen]bool // dirs[i]: the descent leaves path[i] rightward
	depth := 0
	var touch float64 // see Tree.prefix
	for i := t.root; i >= 0; {
		n := t.at(i)
		if l := n.left; l >= 0 {
			touch += t.at(l).key
		}
		if r := n.right; r >= 0 {
			touch += t.at(r).key
		}
		if k == n.key {
			runtime.KeepAlive(touch)
			n.val = add3(n.val, d)
			if n.val[laneC] != 0 {
				// Each ancestor caches both child sums; refresh the on-path
				// one.
				t.propagate(path[:depth], dirs[:depth], sum3(n.val, n.leftSum, n.rightSum))
				return
			}
			t.root = t.del(t.root, k)
			if t.root >= 0 {
				t.nodes[t.root].red = false
			}
			return
		}
		path[depth], dirs[depth] = i, k > n.key
		depth++
		if dirs[depth-1] {
			i = n.right
		} else {
			i = n.left
		}
	}
	runtime.KeepAlive(touch)
	if dc == 0 {
		return
	}
	c := t.alloc(k, d)
	if p := path[depth-1]; dirs[depth-1] {
		t.nodes[p].right = c
	} else {
		t.nodes[p].left = c
	}
	// Reattach the path deepest-first through fixUp, as the recursive LLRB
	// insert does on its way out — until a subtree comes back with a black
	// root. Every fixUp case needs a red child on the path, so above that
	// point the recursive insert's fixUps would only refresh sums: the found
	// branch's propagation, which reads no sibling.
	for j := depth - 1; j >= 0; j-- {
		h := t.fixUp(path[j])
		switch {
		case j == 0:
			t.root = h
		case dirs[j-1]:
			t.nodes[path[j-1]].right = h
		default:
			t.nodes[path[j-1]].left = h
		}
		if j > 0 && !t.nodes[h].red {
			t.propagate(path[:j], dirs[:j], t.sumOf(h))
			return
		}
	}
	t.nodes[t.root].red = false
}

// propagate stores s, the fresh lane sums of the subtree below the last
// frame of path, into the frames bottom-up, in update's evaluation order.
func (t *LevelTree) propagate(path []int32, dirs []bool, s [3]float64) {
	for j := len(path) - 1; j >= 0; j-- {
		m := t.at(path[j])
		if dirs[j] {
			m.rightSum = s
			s = sum3(m.val, m.leftSum, s)
		} else {
			m.leftSum = s
			s = sum3(m.val, s, m.rightSum)
		}
	}
}

// del is the LLRB delete of key k, which must be present in the subtree at h.
func (t *LevelTree) del(h int32, k float64) int32 {
	if k < t.nodes[h].key {
		if l := t.nodes[h].left; !t.isRed(l) && !t.isRed(t.nodes[l].left) {
			h = t.moveRedLeft(h)
		}
		l := t.del(t.nodes[h].left, k)
		t.nodes[h].left = l
		return t.fixUp(h)
	}
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
		// Take over the successor's level, then delete the successor.
		m := t.nodes[h].right
		for t.nodes[m].left >= 0 {
			m = t.nodes[m].left
		}
		t.nodes[h].key, t.nodes[h].val = t.nodes[m].key, t.nodes[m].val
		r := t.deleteMin(t.nodes[h].right)
		t.nodes[h].right = r
	} else {
		r := t.del(t.nodes[h].right, k)
		t.nodes[h].right = r
	}
	return t.fixUp(h)
}

func (t *LevelTree) deleteMin(h int32) int32 {
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

func (t *LevelTree) moveRedLeft(h int32) int32 {
	t.flipColors(h)
	if r := t.nodes[h].right; t.isRed(t.nodes[r].left) {
		t.nodes[h].right = t.rotateRight(r)
		h = t.rotateLeft(h)
		t.flipColors(h)
	}
	return h
}

func (t *LevelTree) moveRedRight(h int32) int32 {
	t.flipColors(h)
	if l := t.nodes[h].left; t.isRed(t.nodes[l].left) {
		h = t.rotateRight(h)
		t.flipColors(h)
	}
	return h
}

// position is where a prefix read steering by `by` places node n, given the
// lanes s accumulated over every level before n's subtree and add, n's own
// lanes plus its left subtree's.
func (n *lnode) position(by Steer, s, add *[3]float64) float64 {
	switch by {
	case SteerWeightThrough:
		return s[laneW] + add[laneW]
	case SteerWeightBefore:
		return s[laneW] + n.leftSum[laneW]
	}
	return n.key
}

// Prefix returns the count and term lanes summed over the leading levels
// whose position (see Steer) is below bound — at most bound, or strictly
// below it when strict. Positions rise with the key (a weight-steered read
// needs non-negative weights), so those levels are a prefix of the order and
// one descent finds them, adding a node's lanes and its left subtree's on
// every right turn: Tree.prefix's loop, with the position in place of the
// stored key.
func (t *LevelTree) Prefix(by Steer, bound float64, strict bool) (cnt, sum float64) {
	var s [3]float64
	for i := t.root; i >= 0; {
		n := t.at(i)
		add := add3(n.val, n.leftSum)
		if p := n.position(by, &s, &add); bound < p || (bound == p && strict) {
			i = n.left
		} else {
			s = add3(s, add)
			i = n.right
		}
	}
	return s[laneC], s[laneT]
}

// Prefixes answers Prefix for every bound in one shared descent. bounds must
// ascend; cnt and sum have its length and receive each bound's lanes. Every
// bound makes the same comparisons and additions in the same order as its own
// Prefix call, so each answer is bit-identical to it; probes that share a
// path share the work along it.
func (t *LevelTree) Prefixes(by Steer, bounds []float64, strict bool, cnt, sum []float64) {
	if len(cnt) != len(bounds) || len(sum) != len(bounds) {
		panic("rpai: Prefixes bounds/cnt/sum length mismatch")
	}
	t.prefixesAt(t.root, by, bounds, strict, cnt, sum, [3]float64{})
}

func (t *LevelTree) prefixesAt(i int32, by Steer, bounds []float64, strict bool, cnt, sum []float64, s [3]float64) {
	for i >= 0 && len(bounds) > 0 {
		n := t.at(i)
		add := add3(n.val, n.leftSum)
		p := n.position(by, &s, &add)
		// The bounds that turn left form a prefix of the ascending list.
		cut := 0
		for cut < len(bounds) && (bounds[cut] < p || (bounds[cut] == p && strict)) {
			cut++
		}
		switch {
		case cut == len(bounds):
			i = n.left
		case cut > 0:
			t.prefixesAt(n.left, by, bounds[:cut], strict, cnt[:cut], sum[:cut], s)
			bounds, cnt, sum = bounds[cut:], cnt[cut:], sum[cut:]
			fallthrough
		default:
			s = add3(s, add)
			i = n.right
		}
	}
	for j := range cnt {
		cnt[j], sum[j] = s[laneC], s[laneT]
	}
}

// Validate checks the key order, the LLRB shape, the cached lane sums (bit
// for bit), that no level has a zero count, and the slab accounting.
// Intended for tests and for decoded snapshots.
func (t *LevelTree) Validate() error {
	var freeWalk int32
	for i := t.free; i >= 0; i = t.nodes[i].left {
		if freeWalk++; freeWalk > int32(len(t.nodes)) {
			return fmt.Errorf("rpai: level tree free list cycles")
		}
	}
	if freeWalk != t.freeN {
		return fmt.Errorf("rpai: level tree free list holds %d slots, counter says %d", freeWalk, t.freeN)
	}
	if t.isRed(t.root) {
		return fmt.Errorf("rpai: root is red")
	}
	live, _, err := t.validate(t.root, math.Inf(-1), math.Inf(1))
	if err == nil && int(live)+int(t.freeN) != len(t.nodes) {
		err = fmt.Errorf("rpai: level tree accounting: %d live + %d free != %d slots", live, t.freeN, len(t.nodes))
	}
	return err
}

// validate checks the subtree at i, whose keys must lie strictly between lo
// and hi, and returns its node count and black height.
func (t *LevelTree) validate(i int32, lo, hi float64) (size int32, blackHeight int, err error) {
	if i < 0 {
		return 0, 1, nil
	}
	n := &t.nodes[i]
	k := n.key
	switch {
	case !(lo < k && k < hi):
		return 0, 0, fmt.Errorf("rpai: level key %v out of order or not finite", k)
	case t.isRed(n.right):
		return 0, 0, fmt.Errorf("rpai: right-leaning red link at key %v", k)
	case n.red && t.isRed(n.left):
		return 0, 0, fmt.Errorf("rpai: two consecutive red links at key %v", k)
	case n.val[laneC] == 0:
		return 0, 0, fmt.Errorf("rpai: level %v has a zero count", k)
	case n.leftSum != t.sumOf(n.left) || n.rightSum != t.sumOf(n.right):
		return 0, 0, fmt.Errorf("rpai: cached lane sums stale at key %v", k)
	}
	ls, lh, err := t.validate(n.left, lo, k)
	if err != nil {
		return 0, 0, err
	}
	rs, rh, err := t.validate(n.right, k, hi)
	if err != nil {
		return 0, 0, err
	}
	if lh != rh {
		return 0, 0, fmt.Errorf("rpai: black height mismatch at key %v (%d vs %d)", k, lh, rh)
	}
	if !n.red {
		lh++
	}
	return 1 + ls + rs, lh, nil
}

// Level-tree snapshot stream: magic "RLVL", uint32 version, uint32 node
// count, then a preorder walk of (flags byte, key, weight, count, term) with
// the RPAI stream's flag bits. Shape and colours are written, the cached sums
// are not: a restore recomputes them in update's order, so it is bit-identical
// to the tree that was encoded and re-encodes to the same bytes.
const (
	levelsMagic   = "RLVL"
	levelsVersion = 1
)

// Encode writes the tree's snapshot stream to w.
func (t *LevelTree) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	copy(hdr[:], levelsMagic)
	binary.LittleEndian.PutUint32(hdr[4:], levelsVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.Len()))
	bw.Write(hdr[:])
	t.encodeNode(bw, t.root)
	return bw.Flush() // bufio errors are sticky
}

func (t *LevelTree) encodeNode(w *bufio.Writer, i int32) {
	if i < 0 {
		return
	}
	n := &t.nodes[i]
	var buf [33]byte
	if n.left >= 0 {
		buf[0] |= flagLeft
	}
	if n.right >= 0 {
		buf[0] |= flagRight
	}
	if n.red {
		buf[0] |= flagRed
	}
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(n.key))
	for l, v := range n.val {
		binary.LittleEndian.PutUint64(buf[9+8*l:], math.Float64bits(v))
	}
	w.Write(buf[:])
	t.encodeNode(w, n.left)
	t.encodeNode(w, n.right)
}

// DecodeLevelTree restores a tree from a stream written by Encode. The result
// is validated, so a corrupted stream is reported rather than accepted.
func DecodeLevelTree(r io.Reader) (*LevelTree, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("rpai: reading level tree header: %w", err)
	}
	if string(hdr[:4]) != levelsMagic {
		return nil, fmt.Errorf("rpai: bad level tree magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != levelsVersion {
		return nil, fmt.Errorf("rpai: unsupported level tree version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[8:])
	t := NewLevelTree()
	if count > 0 {
		t.nodes = make([]lnode, 0, min(count, 1<<20))
		root, err := t.decodeNode(br)
		if err != nil {
			return nil, err
		}
		t.root = root
	}
	if t.Len() != int(count) {
		return nil, fmt.Errorf("rpai: level tree node count mismatch: header %d, stream %d", count, t.Len())
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rpai: level tree snapshot fails validation: %w", err)
	}
	return t, nil
}

func (t *LevelTree) decodeNode(r *bufio.Reader) (int32, error) {
	var buf [33]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nilIdx, fmt.Errorf("rpai: truncated level tree snapshot: %w", err)
	}
	var v [3]float64
	for l := range v {
		v[l] = math.Float64frombits(binary.LittleEndian.Uint64(buf[9+8*l:]))
	}
	i := t.alloc(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:])), v)
	t.nodes[i].red = buf[0]&flagRed != 0
	if buf[0]&flagLeft != 0 {
		c, err := t.decodeNode(r)
		if err != nil {
			return nilIdx, err
		}
		t.nodes[i].left = c
	}
	if buf[0]&flagRight != 0 {
		c, err := t.decodeNode(r)
		if err != nil {
			return nilIdx, err
		}
		t.nodes[i].right = c
	}
	t.update(i)
	return i, nil
}

// DecodeParentLevels converts the state a correlated predicate kept before
// the level tree — a column-keyed map of level weights beside a two-lane RPAI
// over the same levels keyed by running weight sums — into a level tree.
// r0 and r1 are that RPAI's count and term lane streams, each decoded as a
// one-lane Tree; the two must agree on node count, shape, colours and
// relative keys. keys and weights are the map's entries in the RPAI's key
// order. The lanes are zipped with them in order onto the RPAI's own shape,
// so the converted tree caches the very count and term sums the RPAI did, and
// a read whose weight positions equal the RPAI's keys adds the same floats in
// the same order.
func DecodeParentLevels(r0, r1 io.Reader, keys, weights []float64) (*LevelTree, error) {
	cnt, err := Decode(r0)
	if err != nil {
		return nil, err
	}
	term, err := Decode(r1)
	if err != nil {
		return nil, err
	}
	if cnt.Len() != term.Len() {
		return nil, fmt.Errorf("rpai: lane snapshots disagree on node count: %d vs %d", cnt.Len(), term.Len())
	}
	if !sameShape(cnt, term, cnt.root, term.root) {
		return nil, fmt.Errorf("rpai: lane snapshots disagree on tree structure")
	}
	if cnt.Len() != len(keys) || len(weights) != len(keys) {
		return nil, fmt.Errorf("rpai: parent index holds %d levels, its weight map %d", cnt.Len(), len(keys))
	}
	t := NewLevelTree()
	t.nodes = make([]lnode, 0, len(keys))
	next := 0
	var zip func(i, j int32) int32
	zip = func(i, j int32) int32 {
		if i < 0 {
			return nilIdx
		}
		c, s := &cnt.nodes[i], &term.nodes[j]
		l := zip(c.left, s.left)
		n := t.alloc(keys[next], [3]float64{weights[next], c.value, s.value})
		next++
		r := zip(c.right, s.right)
		t.nodes[n].left, t.nodes[n].right, t.nodes[n].red = l, r, c.color == red
		t.update(n)
		return n
	}
	t.root = zip(cnt.root, term.root)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rpai: converted parent index fails validation: %w", err)
	}
	return t, nil
}

// sameShape reports whether the subtrees at i in a and at j in b have the
// same shape, colours and relative keys (bit for bit).
func sameShape(a, b *Tree, i, j int32) bool {
	if i < 0 || j < 0 {
		return i == j
	}
	m, n := &a.nodes[i], &b.nodes[j]
	return math.Float64bits(m.key) == math.Float64bits(n.key) && m.color == n.color &&
		sameShape(a, b, m.left, n.left) && sameShape(a, b, m.right, n.right)
}
