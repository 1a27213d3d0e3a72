package rpai

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPrefixSumsBitIdentity checks that a shared-descent batch of K probes
// returns, probe for probe, the exact bits of K standalone
// GetSum/GetSumLess calls, across random trees mutated by adds, deletes and
// shifts, and probe sets with duplicates and out-of-range keys.
func TestPrefixSumsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	check := func() {
		for _, k := range []int{0, 1, 2, 3, 7, 16, 33} {
			keys := make([]float64, k)
			for i := range keys {
				switch rng.Intn(8) {
				case 0:
					keys[i] = math.Inf(1)
				case 1:
					keys[i] = math.Inf(-1)
				default:
					keys[i] = float64(rng.Intn(400)) - 200
				}
			}
			sort.Float64s(keys)
			for _, inclusive := range []bool{true, false} {
				want := make([]float64, k)
				for i, key := range keys {
					if inclusive {
						want[i] = tr.GetSum(key)
					} else {
						want[i] = tr.GetSumLess(key)
					}
				}
				scratch := append([]float64(nil), keys...)
				got := make([]float64, k)
				tr.PrefixSums(scratch, got, inclusive)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("inclusive=%v probe %d (key %v): batch %v solo %v",
							inclusive, i, keys[i], got[i], want[i])
					}
				}
			}
		}
	}
	check() // empty tree
	for step := 0; step < 300; step++ {
		switch rng.Intn(10) {
		case 0:
			tr.Delete(float64(rng.Intn(200)) - 100)
		case 1:
			tr.ShiftKeys(float64(rng.Intn(200))-100, float64(rng.Intn(21)-10))
		default:
			tr.Add(float64(rng.Intn(200))-100, float64(rng.Intn(100))-50)
		}
		if step%23 == 0 || step > 290 {
			check()
		}
	}
}
