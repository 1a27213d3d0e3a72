package rpai

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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
// A node is one 64-byte cache line and caches its own subtree's lane sums
// (total); a node's left sum, which a descent adds on every right turn, is
// its left child's total. Every event and rotation has to refresh the totals
// above what it changed. The balancing is therefore classic red-black,
// bottom-up on the path the event's descent recorded: an insert recolours
// upward and rotates at most twice, a delete at most three times, and each
// refreshes the totals along the path once. Tree's left-leaning trees are
// red-black trees too, so a stream written under that balancing decodes
// unchanged.
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

// lnode is one level: 64 bytes, one cache line of the slab, which the
// allocator hands out 64-byte aligned (every size class a slab of them
// rounds up to is a multiple of 64, and larger slabs are page aligned).
//
// total is sum3(val, left total, right total), an absent child counting 0.
// That association order is part of what snapshots pin: the golden streams
// and the parent-format conversion hold reads computed in it, bit for bit,
// so a refresh never adjusts a total by a delta or reorders its terms.
type lnode struct {
	key   float64
	left  int32
	rc    int32      // right child index << 1 | 1 when the node is red
	val   [3]float64 // weight, count, term
	total [3]float64 // lane sums of the subtree rooted here
}

// A level takes 64 bytes, where the treemap node and two-lane RPAI node it
// replaced took 80 + 88. Either direction of drift fails the build.
var (
	_ [unsafe.Sizeof(lnode{}) - 64]byte
	_ [64 - unsafe.Sizeof(lnode{})]byte
)

// maxLevels bounds a slab: rc keeps a right index in 31 bits.
const maxLevels = 1 << 30

func (n *lnode) right() int32 { return n.rc >> 1 }

func (n *lnode) setRight(c int32) { n.rc = c<<1 | n.rc&1 }

func (n *lnode) red() bool { return n.rc&1 != 0 }

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

func (t *LevelTree) isRed(i int32) bool { return i >= 0 && t.nodes[i].red() }

// setRed colours live node i red when red, else black.
func (t *LevelTree) setRed(i int32, red bool) {
	if n := t.at(i); red {
		n.rc |= 1
	} else {
		n.rc &^= 1
	}
}

// noLanes is the lane sums of an empty subtree.
var noLanes [3]float64

// sumOf returns the lane sums of the subtree rooted at i in place: its
// root's total, or noLanes when it is empty. Callers only read it.
func (t *LevelTree) sumOf(i int32) *[3]float64 {
	if i < 0 {
		return &noLanes
	}
	return &t.at(i).total
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
		if len(t.nodes) >= maxLevels {
			panic("rpai: level tree full")
		}
		t.nodes = append(t.nodes, lnode{})
		i = int32(len(t.nodes) - 1)
	}
	t.nodes[i] = lnode{key: k, val: v, left: nilIdx, rc: nilIdx<<1 | 1, total: sum3(v, noLanes, noLanes)}
	return i
}

// freeNode clears slot i and pushes it onto the free list.
func (t *LevelTree) freeNode(i int32) {
	t.nodes[i] = lnode{left: t.free, rc: nilIdx << 1}
	t.free = i
	t.freeN++
}

// update refreshes h's total from its lanes and its children's totals and
// returns it.
func (t *LevelTree) update(h int32) [3]float64 {
	n := t.at(h)
	n.total = sum3(n.val, *t.sumOf(n.left), *t.sumOf(n.right()))
	return n.total
}

// child returns h's right child when right, else its left.
func (t *LevelTree) child(h int32, right bool) int32 {
	if right {
		return t.at(h).right()
	}
	return t.at(h).left
}

// setChild hangs c below h on side right.
func (t *LevelTree) setChild(h int32, right bool, c int32) {
	if right {
		t.at(h).setRight(c)
	} else {
		t.at(h).left = c
	}
}

// link hangs c where frame j of path sits: under frame j-1 on the side
// dirs[j-1] records, or at the root when j is 0.
func (t *LevelTree) link(path []int32, dirs []bool, j int, c int32) {
	if j == 0 {
		t.root = c
	} else {
		t.setChild(path[j-1], dirs[j-1], c)
	}
}

// lift rotates h's child on side right above h and returns it. h takes the
// child's inner subtree and its total is refreshed in place, exact when both
// its new children's totals are; the lifted node's total goes stale, and the
// caller refreshes it, or propagate does when the node is on the path.
// Colours are the caller's.
func (t *LevelTree) lift(h int32, right bool) int32 {
	hn := t.at(h)
	var c int32
	if right {
		c = hn.right()
		cn := t.at(c)
		hn.setRight(cn.left)
		cn.left = h
	} else {
		c = hn.left
		cn := t.at(c)
		hn.left = cn.right()
		cn.setRight(h)
	}
	t.update(h)
	return c
}

// Add adds (dw, dc, dt) to the weight, count and term lanes of level k in one
// descent. An absent level is inserted (unless dc is 0: a level exists only
// while its count is non-zero), and a level whose count returns to 0 is
// deleted. Either structural change works on the path the descent recorded —
// red-black recolouring and at most two rotations for an insert, three for a
// delete — and refreshes the totals along it once. k must be finite.
func (t *LevelTree) Add(k, dw, dc, dt float64) {
	checkKey(k)
	d := [3]float64{dw, dc, dt}
	if t.root < 0 {
		if dc != 0 {
			t.root = t.alloc(k, d)
			t.setRed(t.root, false)
		}
		return
	}
	// A red-black tree over fewer than 2^31 nodes is at most 62 levels deep,
	// so a node has at most 61 ancestors; a delete's fix inserts at most two
	// more frames while it rotates.
	var path [maxPathLen]int32
	var dirs [maxPathLen]bool // dirs[i]: the descent leaves path[i] rightward
	depth := 0
	// Touching both children fetches the line of the one the descent leaves
	// behind too, whose total propagate reads on the way back up (see
	// Tree.prefix).
	var touch float64
	for i := t.root; i >= 0; {
		n := t.at(i)
		if l := n.left; l >= 0 {
			touch += t.at(l).key
		}
		if r := n.right(); r >= 0 {
			touch += t.at(r).key
		}
		if k == n.key {
			runtime.KeepAlive(touch)
			n.val = add3(n.val, d)
			if n.val[laneC] != 0 {
				t.propagate(path[:depth], dirs[:depth], t.update(i))
				return
			}
			t.remove(&path, &dirs, depth, i)
			return
		}
		path[depth], dirs[depth] = i, k > n.key
		depth++
		if dirs[depth-1] {
			i = n.right()
		} else {
			i = n.left
		}
	}
	runtime.KeepAlive(touch)
	if dc != 0 {
		t.insert(path[:depth], dirs[:depth], t.alloc(k, d))
	}
}

// insert hangs the red leaf c below the last frame of path and restores the
// red-black invariants bottom-up: recolouring while the uncle is red, then at
// most two rotations. Every node on the path has its total refreshed once,
// the rotated ones in place and the rest by propagate.
func (t *LevelTree) insert(path []int32, dirs []bool, c int32) {
	depth := len(path)
	t.link(path, dirs, depth, c)
	// x, the red node whose parent may be red, is frame j of the path (c
	// when j is depth).
	j := depth
	for j > 0 && t.isRed(path[j-1]) {
		// A red parent is not the root, so the grandparent exists.
		p, g := path[j-1], path[j-2]
		if u := t.child(g, !dirs[j-2]); t.isRed(u) {
			t.setRed(p, false)
			t.setRed(u, false)
			t.setRed(g, true)
			j -= 2
			continue
		}
		// Below x only totals change; above the grandparent only totals too,
		// once the rotated subtree's top is known. Each lift lowers a node
		// whose new children are x's subtree's and the uncle's, all exact
		// once x's are.
		t.propagate(path[j:], dirs[j:], *t.sumOf(c))
		top := p
		if dirs[j-1] != dirs[j-2] {
			// x is an inner grandchild: lift it over p first, then over g.
			top = t.lift(p, dirs[j-1])
			t.setChild(g, dirs[j-2], top)
		}
		t.lift(g, dirs[j-2])
		t.setRed(top, false)
		t.setRed(g, true)
		t.link(path, dirs, j-2, top)
		t.propagate(path[:j-2], dirs[:j-2], t.update(top))
		return
	}
	t.setRed(t.root, false)
	t.propagate(path, dirs, *t.sumOf(c))
}

// remove deletes z, the level the descent found below the first depth frames
// of path. A node with two children takes over its in-order successor's level
// and the successor is unlinked instead, the path extended down to it; the
// unlinked node has at most one child, which takes its place. Unlinking a
// black leaf leaves its position one black short, and fixDeficit restores the
// black height with at most three rotations. One propagate pass then
// refreshes the totals from the unlinked position to the root.
func (t *LevelTree) remove(path *[maxPathLen]int32, dirs *[maxPathLen]bool, depth int, z int32) {
	y, zn := z, t.at(z)
	if zn.left >= 0 && zn.right() >= 0 {
		path[depth], dirs[depth] = z, true
		depth++
		for y = zn.right(); t.at(y).left >= 0; y = t.at(y).left {
			path[depth], dirs[depth] = y, false
			depth++
		}
		yn := t.at(y)
		zn.key, zn.val = yn.key, yn.val
	}
	yn := t.at(y)
	c, black := yn.left, !yn.red()
	if c < 0 {
		c = yn.right()
	}
	t.link(path[:], dirs[:], depth, c)
	t.freeNode(y)
	switch {
	case c >= 0:
		// A node with one child is black and the child a red leaf.
		t.setRed(c, false)
	case black:
		depth = t.fixDeficit(path, dirs, depth)
	}
	t.propagate(path[:depth], dirs[:depth], *t.sumOf(c))
}

// fixDeficit restores the black height after a black node was unlinked from
// below the last of the depth frames of path, on the side its direction
// records, and returns the new depth. Rotations keep the path the current
// root-to-position path: a node lifted above a frame joins the path, and the
// frames below it keep their places, so the caller's one propagate pass sees
// every node whose subtree changed. A node that leaves the path is lowered
// by lift, which refreshes its total.
func (t *LevelTree) fixDeficit(path *[maxPathLen]int32, dirs *[maxPathLen]bool, depth int) int {
	for j := depth - 1; j >= 0; {
		p, right := path[j], dirs[j]
		s := t.child(p, !right)
		if t.isRed(s) {
			// Red sibling: lift it; p, now red, gets a black sibling.
			t.setRed(s, false)
			t.setRed(p, true)
			depth = t.raise(path, dirs, depth, j)
			j++
			s = t.child(p, !right)
		}
		near, far := t.child(s, right), t.child(s, !right)
		if !t.isRed(near) && !t.isRed(far) {
			// Black sibling with black children: move the deficit up.
			t.setRed(s, true)
			if t.isRed(p) {
				t.setRed(p, false)
				break
			}
			j--
			continue
		}
		if !t.isRed(far) {
			// Near nephew red: lift it over s, which leaves the path. The
			// lifted nephew's stale total is refreshed once raise puts it
			// on the path.
			near = t.lift(s, right)
			t.setChild(p, !right, near)
			s, far = near, s
		}
		// Far nephew red: lift s over p; the deficit is gone.
		t.setRed(s, t.isRed(p))
		t.setRed(p, false)
		t.setRed(far, false)
		depth = t.raise(path, dirs, depth, j)
		break
	}
	return depth
}

// raise lifts the sibling of the path's side of frame j over it, inserts the
// lifted node as frame j and returns the new depth.
func (t *LevelTree) raise(path *[maxPathLen]int32, dirs *[maxPathLen]bool, depth, j int) int {
	right := dirs[j]
	s := t.lift(path[j], !right)
	t.link(path[:], dirs[:], j, s)
	copy(path[j+1:depth+1], path[j:depth])
	copy(dirs[j+1:depth+1], dirs[j:depth])
	path[j] = s // dirs[j] stays: the old frame hangs on s's side dirs[j]
	return depth + 1
}

// propagate refreshes the frames' totals bottom-up, in update's evaluation
// order, given s, the total of the subtree below the last frame of path; the
// child off the path gives its own. It returns the total at the first frame
// (s itself when path is empty).
func (t *LevelTree) propagate(path []int32, dirs []bool, s [3]float64) [3]float64 {
	for j := len(path) - 1; j >= 0; j-- {
		m := t.at(path[j])
		if dirs[j] {
			m.total = sum3(m.val, *t.sumOf(m.left), s)
		} else {
			m.total = sum3(m.val, s, *t.sumOf(m.right()))
		}
		s = m.total
	}
	return s
}

// position is where a read steering by `by` places node n, given l, the
// lane sums of n's left subtree, and w, the weight accumulated over every
// level before n's subtree.
func (n *lnode) position(by Steer, l *[3]float64, w float64) float64 {
	switch by {
	case SteerWeightThrough:
		return w + (n.val[laneW] + l[laneW])
	case SteerWeightBefore:
		return w + l[laneW]
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
	cnt, sum, _, _ = t.descend(by, bound, strict)
	return cnt, sum
}

// Seek returns the key of the first level whose position exceeds bound: the
// level after those Prefix(by, bound, false) sums. ok is false when no
// level's position exceeds bound.
func (t *LevelTree) Seek(by Steer, bound float64) (key float64, ok bool) {
	_, _, key, ok = t.descend(by, bound, false)
	return key, ok
}

// descend is the descent of Prefix and Seek. It returns the count and term
// lanes of the prefix and the key of the last level it turned left at, the
// first level past the prefix. It carries the lanes in scalars, each summed
// as Prefixes sums its lane arrays: the same floats in the same order.
func (t *LevelTree) descend(by Steer, bound float64, strict bool) (cnt, sum, next float64, ok bool) {
	var w, touch float64
	for i := t.root; i >= 0; {
		n := t.at(i)
		// The left child's total decides the turn; touching the right child
		// puts its line in flight meanwhile (see Tree.prefix).
		if r := n.right(); r >= 0 {
			touch += t.at(r).key
		}
		l := t.sumOf(n.left)
		if p := n.position(by, l, w); bound < p || (bound == p && strict) {
			next, ok = n.key, true
			i = n.left
		} else {
			w += n.val[laneW] + l[laneW]
			cnt += n.val[laneC] + l[laneC]
			sum += n.val[laneT] + l[laneT]
			i = n.right()
		}
	}
	runtime.KeepAlive(touch)
	return cnt, sum, next, ok
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
	var touch float64 // see descend
	for i >= 0 && len(bounds) > 0 {
		n := t.at(i)
		if r := n.right(); r >= 0 {
			touch += t.at(r).key
		}
		l := t.sumOf(n.left)
		add := add3(n.val, *l)
		p := n.position(by, l, s[laneW])
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
			i = n.right()
		}
	}
	runtime.KeepAlive(touch)
	for j := range cnt {
		cnt[j], sum[j] = s[laneC], s[laneT]
	}
}

// Get returns the count and term lanes of level k, zero when it is absent:
// the point read of an equality correlation.
func (t *LevelTree) Get(k float64) (cnt, sum float64) {
	for i := t.root; i >= 0; {
		n := t.at(i)
		switch {
		case k < n.key:
			i = n.left
		case k > n.key:
			i = n.right()
		default:
			return n.val[laneC], n.val[laneT]
		}
	}
	return 0, 0
}

// Validate checks the key order, the red-black invariants (a black root, no
// red node with a red child, equal black heights), every node's total (bit
// for bit, so a -0 where update makes +0 is stale), that no level has a zero
// count, and the slab accounting.
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
	case n.red() && (t.isRed(n.left) || t.isRed(n.right())):
		return 0, 0, fmt.Errorf("rpai: red node with a red child at key %v", k)
	case n.val[laneC] == 0:
		return 0, 0, fmt.Errorf("rpai: level %v has a zero count", k)
	case !sameLanes(n.total, sum3(n.val, *t.sumOf(n.left), *t.sumOf(n.right()))):
		return 0, 0, fmt.Errorf("rpai: cached lane sums stale at key %v", k)
	}
	ls, lh, err := t.validate(n.left, lo, k)
	if err != nil {
		return 0, 0, err
	}
	rs, rh, err := t.validate(n.right(), k, hi)
	if err != nil {
		return 0, 0, err
	}
	if lh != rh {
		return 0, 0, fmt.Errorf("rpai: black height mismatch at key %v (%d vs %d)", k, lh, rh)
	}
	if !n.red() {
		lh++
	}
	return 1 + ls + rs, lh, nil
}

// sameLanes reports whether a and b hold the same bits in every lane.
func sameLanes(a, b [3]float64) bool {
	for l := range a {
		if math.Float64bits(a[l]) != math.Float64bits(b[l]) {
			return false
		}
	}
	return true
}

// Level-tree snapshot stream: magic "RLVL", uint32 version, uint32 node
// count, then a preorder walk of (flags byte, key, weight, count, term) with
// the RPAI stream's flag bits. Shape and colours are written, the totals are
// not: a restore recomputes them in update's order, so it is bit-identical to
// the tree that was encoded and re-encodes to the same bytes.
const (
	levelsMagic   = "RLVL"
	levelsVersion = 1
)

// levelNodeLen is one node's length in the snapshot stream.
const levelNodeLen = 33

// EncodedLen is the length of the tree's snapshot stream.
func (t *LevelTree) EncodedLen() int { return 12 + levelNodeLen*t.Len() }

// AppendEncoded appends the tree's snapshot stream to dst; it grows dst at
// most once.
func (t *LevelTree) AppendEncoded(dst []byte) []byte {
	dst = slices.Grow(dst, t.EncodedLen())
	dst = append(dst, levelsMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, levelsVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Len()))
	return t.appendNode(dst, t.root)
}

// Encode writes the tree's snapshot stream to w.
func (t *LevelTree) Encode(w io.Writer) error {
	_, err := w.Write(t.AppendEncoded(nil))
	return err
}

func (t *LevelTree) appendNode(dst []byte, i int32) []byte {
	if i < 0 {
		return dst
	}
	n := &t.nodes[i]
	var flags byte
	if n.left >= 0 {
		flags |= flagLeft
	}
	if n.right() >= 0 {
		flags |= flagRight
	}
	if n.red() {
		flags |= flagRed
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, flags), math.Float64bits(n.key))
	for _, v := range n.val {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = t.appendNode(dst, n.left)
	return t.appendNode(dst, n.right())
}

// DecodeLevelTree restores a tree from r, read to its end, which must hold
// one stream written by Encode (see UnmarshalLevelTree).
func DecodeLevelTree(r io.Reader) (*LevelTree, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rpai: reading level tree snapshot: %w", err)
	}
	return UnmarshalLevelTree(b)
}

// UnmarshalLevelTree restores a tree from b, which must hold exactly one
// snapshot stream (AppendEncoded). The result is validated, so a corrupted
// stream is reported rather than accepted.
func UnmarshalLevelTree(b []byte) (*LevelTree, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("rpai: level tree snapshot of %d bytes is shorter than its header", len(b))
	}
	if string(b[:4]) != levelsMagic {
		return nil, fmt.Errorf("rpai: bad level tree magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != levelsVersion {
		return nil, fmt.Errorf("rpai: unsupported level tree version %d", v)
	}
	count := binary.LittleEndian.Uint32(b[8:])
	if count > maxLevels {
		return nil, fmt.Errorf("rpai: level tree snapshot of %d levels exceeds %d", count, maxLevels)
	}
	if want := 12 + levelNodeLen*uint64(count); uint64(len(b)) != want {
		return nil, fmt.Errorf("rpai: level tree snapshot of %d levels is %d bytes, want %d", count, len(b), want)
	}
	t := NewLevelTree()
	if count > 0 {
		t.nodes = make([]lnode, 0, count)
		rest := b[12:]
		root, err := t.decodeNode(&rest, 1)
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

// decodeNode decodes the subtree whose root sits at the given depth (the
// root's is 1) from the front of *b, advancing it. A stream deeper than any
// valid tree is refused as it arrives, so the recursion is bounded by
// maxPathLen rather than by the stream.
func (t *LevelTree) decodeNode(b *[]byte, depth int) (int32, error) {
	if depth > maxPathLen {
		return nilIdx, fmt.Errorf("rpai: level tree snapshot deeper than %d levels", maxPathLen)
	}
	if len(*b) < levelNodeLen {
		return nilIdx, errors.New("rpai: truncated level tree snapshot")
	}
	buf := (*b)[:levelNodeLen]
	*b = (*b)[levelNodeLen:]
	var v [3]float64
	for l := range v {
		v[l] = math.Float64frombits(binary.LittleEndian.Uint64(buf[9+8*l:]))
	}
	i := t.alloc(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:])), v)
	t.setRed(i, buf[0]&flagRed != 0)
	if buf[0]&flagLeft != 0 {
		c, err := t.decodeNode(b, depth+1)
		if err != nil {
			return nilIdx, err
		}
		t.setChild(i, false, c)
	}
	if buf[0]&flagRight != 0 {
		c, err := t.decodeNode(b, depth+1)
		if err != nil {
			return nilIdx, err
		}
		t.setChild(i, true, c)
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
// so the converted tree's totals are the very count and term sums the RPAI
// cached, and a read whose weight positions equal the RPAI's keys adds the
// same floats in the same order.
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
		t.setChild(n, false, l)
		t.setChild(n, true, r)
		t.setRed(n, c.color == red)
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
