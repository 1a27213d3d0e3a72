package rpai

import (
	"math/rand"
	"sort"
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

// levelShapes are the stack benchmark's four level-tree shapes: trees ×
// price levels × live rows.
var levelShapes = []struct {
	name                string
	trees, levels, rows int
}{
	{"deep-index", 2, 50000, 100000},
	{"wide-shallow", 4096, 16, 200000},
	{"multi-distinct", 512, 256, 20000},
	{"fanout-reads", 2048, 256, 200000},
}

// levelOp is one Add of the level-tree benchmarks.
type levelOp struct {
	tree       int32
	k, w, c, t float64
}

// preloadLevels builds trees level trees holding rows random rows over the
// given number of price levels — volumes 1..100, the term price·volume — and
// returns them, the live rows and a generator of fresh ones.
func preloadLevels(rng *rand.Rand, trees, levels, rows int) ([]*LevelTree, []levelOp, func() levelOp) {
	ts := make([]*LevelTree, trees)
	for i := range ts {
		ts[i] = NewLevelTree()
	}
	row := func() levelOp {
		k, w := float64(rng.Intn(levels)+1), float64(rng.Intn(100)+1)
		return levelOp{int32(rng.Intn(trees)), k, w, 1, k * w}
	}
	live := make([]levelOp, 0, rows)
	for i := 0; i < rows; i++ {
		r := row()
		live = append(live, r)
		ts[r.tree].Add(r.k, r.w, r.c, r.t)
	}
	return ts, live, row
}

// BenchmarkLevelTreeChurn measures LevelTree.Add alone at the four
// levelShapes. Inserts of fresh rows and deletes of live ones alternate, so a
// level empties (and is deleted) or appears as often as its share of rows
// allows. deep-index keeps about one row per level, so its deletes often
// empty one; wide-shallow keeps three, so its levels rarely empty. One op is
// one Add; the op list is built outside the timer and then replayed undone,
// so every lap starts from the preloaded state.
func BenchmarkLevelTreeChurn(b *testing.B) {
	for _, g := range levelShapes {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			trees, live, row := preloadLevels(rng, g.trees, g.levels, g.rows)
			const steps = 1 << 16
			ops := make([]levelOp, 0, 2*steps)
			for i := 0; i < steps; i++ {
				if i%2 == 0 {
					j := rng.Intn(len(live))
					r := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					ops = append(ops, levelOp{r.tree, r.k, -r.w, -1, -r.t})
				} else {
					r := row()
					live = append(live, r)
					ops = append(ops, r)
				}
			}
			for i := steps - 1; i >= 0; i-- {
				r := ops[i]
				ops = append(ops, levelOp{r.tree, r.k, -r.w, -r.c, -r.t})
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

// BenchmarkLevelTreeRefresh measures the read a partition's refresh makes:
// one weight-steered Prefixes over four ascending bounds, on the trees
// BenchmarkLevelTreeChurn preloads. Each op picks a random tree and four
// random fractions of its total weight, so the descents' paths vary. The
// op list is built outside the timer. One op is one Prefixes call.
func BenchmarkLevelTreeRefresh(b *testing.B) {
	const probes = 4
	for _, g := range levelShapes {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			trees, _, _ := preloadLevels(rng, g.trees, g.levels, g.rows)
			type op struct {
				tree   int32
				bounds [probes]float64
			}
			ops := make([]op, 1<<16)
			for i := range ops {
				o := &ops[i]
				o.tree = int32(rng.Intn(len(trees)))
				w, _, _ := trees[o.tree].Total()
				for j := range o.bounds {
					o.bounds[j] = rng.Float64() * w
				}
				sort.Float64s(o.bounds[:])
			}
			var cnt, sum [probes]float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &ops[i%len(ops)]
				trees[o.tree].Prefixes(SteerWeightThrough, o.bounds[:], false, cnt[:], sum[:])
			}
			benchSink = sum[0]
		})
	}
}
