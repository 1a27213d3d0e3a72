package rpai

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(rng.Intn(n * 4))
	}
	return keys
}

func BenchmarkTreePut(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		keys := benchKeys(n, 1)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := New()
				for _, k := range keys {
					t.Put(k, 1)
				}
			}
		})
	}
}

// BenchmarkTreeAdd measures the steady-state hot path: Add on keys that are
// already present, the dominant operation of aggregate maintenance.
func BenchmarkTreeAdd(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		keys := benchKeys(n, 2)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			t := New()
			for _, k := range keys {
				t.Put(k, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Add(keys[i%len(keys)], 1)
			}
		})
	}
}

func BenchmarkTreeGetSum(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		keys := benchKeys(n, 3)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			t := New()
			for _, k := range keys {
				t.Put(k, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += t.GetSum(keys[i%len(keys)])
			}
			benchSink = sink
		})
	}
}

// BenchmarkTreeDelete measures delete/re-insert churn at a steady size — the
// case the slab's free list exists for.
func BenchmarkTreeDelete(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		keys := benchKeys(n, 4)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			t := New()
			for _, k := range keys {
				t.Put(k, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if t.Delete(k) {
					t.Put(k, 1)
				}
			}
		})
	}
}

var benchSink float64

// BenchmarkLevelTreeChurn measures LevelTree.Add alone at the stack
// benchmark's four tree shapes: trees × price levels × live rows, volumes
// 1..100, the term price·volume. Inserts of fresh rows and deletes of live
// ones alternate, so a level empties (and is deleted) or appears as often as
// its share of rows allows. deep-index keeps about one row per level, so its
// deletes often empty one; wide-shallow keeps three, so its levels rarely
// empty. One op is one Add; the op list is built outside the timer and then
// replayed undone, so every lap starts from the preloaded state.
func BenchmarkLevelTreeChurn(b *testing.B) {
	for _, g := range []struct {
		name                string
		trees, levels, rows int
	}{
		{"deep-index", 2, 50000, 100000},
		{"wide-shallow", 4096, 16, 200000},
		{"multi-distinct", 512, 256, 20000},
		{"fanout-reads", 2048, 256, 200000},
	} {
		b.Run(g.name, func(b *testing.B) {
			type op struct {
				tree       int32
				k, w, c, t float64
			}
			rng := rand.New(rand.NewSource(1))
			trees := make([]*LevelTree, g.trees)
			for i := range trees {
				trees[i] = NewLevelTree()
			}
			var live []op
			row := func() op {
				k, w := float64(rng.Intn(g.levels)+1), float64(rng.Intn(100)+1)
				return op{int32(rng.Intn(g.trees)), k, w, 1, k * w}
			}
			for i := 0; i < g.rows; i++ {
				r := row()
				live = append(live, r)
				trees[r.tree].Add(r.k, r.w, r.c, r.t)
			}
			const steps = 1 << 16
			ops := make([]op, 0, 2*steps)
			for i := 0; i < steps; i++ {
				if i%2 == 0 {
					j := rng.Intn(len(live))
					r := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					ops = append(ops, op{r.tree, r.k, -r.w, -1, -r.t})
				} else {
					r := row()
					live = append(live, r)
					ops = append(ops, r)
				}
			}
			for i := steps - 1; i >= 0; i-- {
				r := ops[i]
				ops = append(ops, op{r.tree, r.k, -r.w, -r.c, -r.t})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &ops[i%len(ops)]
				trees[r.tree].Add(r.k, r.w, r.c, r.t)
			}
		})
	}
}
