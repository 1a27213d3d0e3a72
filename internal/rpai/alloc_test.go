package rpai

import (
	"math/rand"
	"testing"
)

// Golden allocation ceilings for the steady-state hot paths. These are exact
// contracts, not budgets: the slab tree's whole point is that aggregate
// maintenance on a warmed tree performs zero heap allocations. A regression here
// (a closure capture, an interface escape, a forgotten scratch reuse) fails
// loudly instead of surfacing as GC pressure in production profiles.

func warmed(n int, seed int64) (*Tree, []float64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	tr := New()
	for i := range keys {
		keys[i] = float64(rng.Intn(n * 2))
		tr.Put(keys[i], 1)
	}
	return tr, keys
}

func requireAllocs(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > ceiling {
		t.Errorf("%s allocates %.1f per op, ceiling %.0f", name, got, ceiling)
	}
}

func TestAllocGuardTreeHotPaths(t *testing.T) {
	tr, keys := warmed(4096, 9)
	var i int
	next := func() float64 { i++; return keys[i%len(keys)] }

	requireAllocs(t, "Tree.Add(existing)", 0, func() { tr.Add(next(), 1) })
	requireAllocs(t, "Tree.Put(existing)", 0, func() { tr.Put(next(), 2) })
	requireAllocs(t, "Tree.GetSum", 0, func() { benchSink = tr.GetSum(next()) })
	requireAllocs(t, "Tree.GetSumLess", 0, func() { benchSink = tr.GetSumLess(next()) })
	requireAllocs(t, "Tree.Get", 0, func() { benchSink, _ = tr.Get(next()) })
}

// TestAllocGuardArenaChurn pins the free-list contract: once the slab covers
// the working set, a delete/insert cycle allocates nothing at all.
func TestAllocGuardArenaChurn(t *testing.T) {
	tr, keys := warmed(4096, 10)
	// One warm-up lap so the shift scratch and slab have seen every key.
	for _, k := range keys[:64] {
		tr.Delete(k)
		tr.Add(k, 1)
	}
	var i int
	requireAllocs(t, "Tree delete/insert churn", 0, func() {
		i++
		k := keys[i%len(keys)]
		if tr.Delete(k) {
			tr.Add(k, 1)
		}
	})

}

// TestAllocGuardArenaShift pins the negative-shift path, which reuses the
// extraction scratch buffer and free-listed slots.
func TestAllocGuardArenaShift(t *testing.T) {
	tr := New()
	for i := 0; i < 1024; i++ {
		tr.Add(float64(i), 1)
	}
	// Warm the scratch: a negative shift that extracts a handful of keys.
	tr.ShiftKeys(500, -3)
	var step float64
	requireAllocs(t, "Tree.ShiftKeys(negative)", 0, func() {
		step++
		tr.ShiftKeys(200+step, -2)
	})
	requireAllocs(t, "Tree.ShiftKeys(positive)", 0, func() {
		step++
		tr.ShiftKeys(100+step, 2)
	})

}

// TestAllocGuardLevelTree pins the executor's per-event cycle on the level
// tree — an add to a live level, a level emptied and deleted (from a leaf,
// and from an inner node by successor takeover), a level inserted from the
// free list — and both threshold reads at zero allocations once the slab
// covers the working set.
func TestAllocGuardLevelTree(t *testing.T) {
	keys := rand.New(rand.NewSource(12)).Perm(4096)
	lt := NewLevelTree()
	for _, k := range keys {
		lt.Add(float64(k), 2, 1, 0.5)
	}
	var i int
	next := func() float64 { i++; return float64(keys[i%len(keys)]) }
	requireAllocs(t, "LevelTree.Add(existing)", 0, func() { lt.Add(next(), 0.25, 0, 0.125) })
	requireAllocs(t, "LevelTree delete/insert churn", 0, func() {
		k := next()
		lt.Add(k, -2, -1, -0.5)
		lt.Add(k, 2, 1, 0.5)
	})
	// The root has two children, so deleting its level takes over the
	// successor's; the re-insert lands on a leaf.
	requireAllocs(t, "LevelTree successor-takeover delete/insert", 0, func() {
		n := lt.at(lt.root)
		k, v := n.key, n.val
		lt.Add(k, -v[laneW], -v[laneC], -v[laneT])
		lt.Add(k, v[laneW], v[laneC], v[laneT])
	})
	total, _, _ := lt.Total()
	requireAllocs(t, "LevelTree.Prefix(weight)", 0, func() {
		benchSink, _ = lt.Prefix(SteerWeightThrough, total*float64(i%7)/7, false)
		i++
	})
	bounds, cnt, sum := []float64{1, 50, 900, 4000}, make([]float64, 4), make([]float64, 4)
	requireAllocs(t, "LevelTree.Prefixes(weight)", 0, func() {
		lt.Prefixes(SteerWeightBefore, bounds, true, cnt, sum)
	})
}
