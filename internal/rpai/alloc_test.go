package rpai

import (
	"math/rand"
	"testing"
)

// Golden allocation ceilings for the steady-state hot paths. These are exact
// contracts, not budgets: the arena tree's whole point is that aggregate
// maintenance on a warmed tree performs zero heap allocations, and the
// pointer tree's read/update paths are allocation-free too. A regression here
// (a closure capture, an interface escape, a forgotten scratch reuse) fails
// loudly instead of surfacing as GC pressure in production profiles.

func warmedPair(n int, seed int64) (*Tree, *ArenaTree, []float64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	tr, ar := New(), NewArena()
	for i := range keys {
		keys[i] = float64(rng.Intn(n * 2))
		tr.Put(keys[i], 1)
		ar.Put(keys[i], 1)
	}
	return tr, ar, keys
}

func requireAllocs(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > ceiling {
		t.Errorf("%s allocates %.1f per op, ceiling %.0f", name, got, ceiling)
	}
}

func TestAllocGuardTreeHotPaths(t *testing.T) {
	tr, ar, keys := warmedPair(4096, 9)
	var i int
	next := func() float64 { i++; return keys[i%len(keys)] }

	requireAllocs(t, "Tree.Add(existing)", 0, func() { tr.Add(next(), 1) })
	requireAllocs(t, "Tree.GetSum", 0, func() { benchSink = tr.GetSum(next()) })
	requireAllocs(t, "Tree.GetSumLess", 0, func() { benchSink = tr.GetSumLess(next()) })
	requireAllocs(t, "Tree.Get", 0, func() { benchSink, _ = tr.Get(next()) })

	requireAllocs(t, "ArenaTree.Add(existing)", 0, func() { ar.Add(next(), 1) })
	requireAllocs(t, "ArenaTree.Put(existing)", 0, func() { ar.Put(next(), 2) })
	requireAllocs(t, "ArenaTree.GetSum", 0, func() { benchSink = ar.GetSum(next()) })
	requireAllocs(t, "ArenaTree.GetSumLess", 0, func() { benchSink = ar.GetSumLess(next()) })
	requireAllocs(t, "ArenaTree.Get", 0, func() { benchSink, _ = ar.Get(next()) })
}

// TestAllocGuardArenaChurn pins the free-list contract: once the slab covers
// the working set, a delete/insert cycle allocates nothing at all.
func TestAllocGuardArenaChurn(t *testing.T) {
	_, ar, keys := warmedPair(4096, 10)
	// One warm-up lap so the shift scratch and slab have seen every key.
	for _, k := range keys[:64] {
		ar.Delete(k)
		ar.Add(k, 1)
	}
	var i int
	requireAllocs(t, "ArenaTree delete/insert churn", 0, func() {
		i++
		k := keys[i%len(keys)]
		if ar.Delete(k) {
			ar.Add(k, 1)
		}
	})

	// The two-lane tree shares the slab and free list, so the same holds,
	// including the executor's own cycle: add, and delete on a zero count.
	pair := NewArenaPair()
	for _, k := range keys {
		pair.Put(k, 1, 0.5)
	}
	for _, k := range keys[:64] {
		pair.Delete(k)
		pair.Add(k, 1, 0.5)
	}
	requireAllocs(t, "ArenaPair delete/insert churn", 0, func() {
		i++
		k := keys[i%len(keys)]
		if c, _ := pair.Add(k, -1, -0.5); c == 0 {
			pair.Delete(k)
		}
		pair.Add(k, 1, 0.5)
	})
}

// TestAllocGuardAddMany pins the batched path: on a warmed tree, a batch
// that lands on existing keys (the steady-state grouped-aggregate shape)
// allocates nothing — no closure captures, no path-stack escapes — and a
// churn batch over free-listed slots allocates nothing either.
func TestAllocGuardAddMany(t *testing.T) {
	_, ar, keys := warmedPair(4096, 11)
	batch := make([]Entry, 64)
	var i int
	requireAllocs(t, "ArenaTree.AddMany(existing)", 0, func() {
		for j := range batch {
			i++
			batch[j] = Entry{keys[i%len(keys)], 1}
		}
		ar.AddMany(batch)
	})
	// Churn: delete a run of keys, then re-insert them in one batch drawing
	// from the free list.
	requireAllocs(t, "ArenaTree.AddMany(churn)", 0, func() {
		for j := range batch {
			i++
			k := keys[i%len(keys)]
			batch[j] = Entry{k, 1}
			ar.Delete(k)
		}
		ar.AddMany(batch)
	})
}

// TestAllocGuardArenaShift pins the negative-shift path, which reuses the
// extraction scratch buffer and free-listed slots.
func TestAllocGuardArenaShift(t *testing.T) {
	ar := NewArena()
	for i := 0; i < 1024; i++ {
		ar.Add(float64(i), 1)
	}
	// Warm the scratch: a negative shift that extracts a handful of keys.
	ar.ShiftKeys(500, -3)
	var step float64
	requireAllocs(t, "ArenaTree.ShiftKeys(negative)", 0, func() {
		step++
		ar.ShiftKeys(200+step, -2)
	})
	requireAllocs(t, "ArenaTree.ShiftKeys(positive)", 0, func() {
		step++
		ar.ShiftKeys(100+step, 2)
	})

	pair := NewArenaPair()
	for i := 0; i < 1024; i++ {
		pair.Add(float64(i), 1, 0.5)
	}
	pair.ShiftKeys(500, -3)
	step = 0
	requireAllocs(t, "ArenaPair.ShiftKeys(negative)", 0, func() {
		step++
		pair.ShiftKeys(200+step, -2)
	})
	requireAllocs(t, "ArenaPair.ShiftKeysInclusive(negative)", 0, func() {
		step++
		pair.ShiftKeysInclusive(600+step, -2)
	})
	requireAllocs(t, "ArenaPair.ShiftKeys(positive)", 0, func() {
		step++
		pair.ShiftKeys(100+step, 2)
	})
}
