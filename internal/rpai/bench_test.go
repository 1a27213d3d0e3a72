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
