package aggindex

import (
	"math/rand"
	"sort"
	"testing"
)

// TestConformanceAcrossKinds drives every Index implementation through the
// same random operation sequence and checks they agree with a map model and
// with each other on every query.
func TestConformanceAcrossKinds(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				runConformance(t, kind, seed)
			}
		})
	}
}

func runConformance(t *testing.T, kind Kind, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idx := New(kind)
	m := map[float64]float64{}
	modelShift := func(k, d float64, incl bool) {
		next := map[float64]float64{}
		for key, v := range m {
			nk := key
			if key > k || (incl && key == k) {
				nk = key + d
			}
			next[nk] += v
		}
		m = next
	}
	modelGetSum := func(k float64, strict bool) float64 {
		var s float64
		for key, v := range m {
			if (strict && key < k) || (!strict && key <= k) {
				s += v
			}
		}
		return s
	}
	for op := 0; op < 800; op++ {
		switch rng.Intn(7) {
		case 0:
			k, v := float64(rng.Intn(150)), float64(rng.Intn(40)+1)
			idx.Add(k, v)
			m[k] += v
		case 1:
			k, v := float64(rng.Intn(150)), float64(rng.Intn(40))
			idx.Put(k, v)
			m[k] = v
		case 2:
			k := float64(rng.Intn(150))
			_, want := m[k]
			if got := idx.Delete(k); got != want {
				t.Fatalf("%s seed %d op %d: Delete(%v) = %v want %v", kind, seed, op, k, got, want)
			}
			delete(m, k)
		case 3:
			k, d := float64(rng.Intn(200)-20), float64(rng.Intn(80)-40)
			idx.ShiftKeys(k, d)
			modelShift(k, d, false)
		case 4:
			k, d := float64(rng.Intn(200)-20), float64(rng.Intn(80)-40)
			idx.ShiftKeysInclusive(k, d)
			modelShift(k, d, true)
		case 5:
			q := float64(rng.Intn(250) - 40)
			if got, want := idx.GetSum(q), modelGetSum(q, false); got != want {
				t.Fatalf("%s seed %d op %d: GetSum(%v) = %v want %v", kind, seed, op, q, got, want)
			}
			if got, want := idx.GetSumLess(q), modelGetSum(q, true); got != want {
				t.Fatalf("%s seed %d op %d: GetSumLess(%v) = %v want %v", kind, seed, op, q, got, want)
			}
		case 6:
			q := float64(rng.Intn(250) - 40)
			total := modelGetSum(1e18, false)
			if got, want := idx.SuffixSum(q), total-modelGetSum(q, true); got != want {
				t.Fatalf("%s seed %d op %d: SuffixSum(%v) = %v want %v", kind, seed, op, q, got, want)
			}
			if got, want := idx.SuffixSumGreater(q), total-modelGetSum(q, false); got != want {
				t.Fatalf("%s seed %d op %d: SuffixSumGreater(%v) = %v want %v", kind, seed, op, q, got, want)
			}
		}
		if idx.Len() != len(m) {
			t.Fatalf("%s seed %d op %d: Len = %d want %d", kind, seed, op, idx.Len(), len(m))
		}
	}
	// Final sweep: every entry matches, Ascend is ordered and complete.
	for k, v := range m {
		if got, ok := idx.Get(k); !ok || got != v {
			t.Fatalf("%s seed %d: Get(%v) = %v,%v want %v", kind, seed, k, got, ok, v)
		}
	}
	var keys []float64
	idx.Ascend(func(k, v float64) bool {
		if want := m[k]; v != want {
			t.Fatalf("%s seed %d: Ascend value at %v = %v want %v", kind, seed, k, v, want)
		}
		keys = append(keys, k)
		return true
	})
	if !sort.Float64sAreSorted(keys) {
		t.Fatalf("%s seed %d: Ascend out of order: %v", kind, seed, keys)
	}
	if len(keys) != len(m) {
		t.Fatalf("%s seed %d: Ascend visited %d entries, want %d", kind, seed, len(keys), len(m))
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown kind did not panic")
		}
	}()
	New(Kind("bogus"))
}

func TestAscendEarlyStopAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		idx := New(kind)
		for i := 1; i <= 10; i++ {
			idx.Add(float64(i), 1)
		}
		var n int
		idx.Ascend(func(k, _ float64) bool {
			n++
			return k < 5
		})
		if n != 5 {
			t.Fatalf("%s: visited %d entries, want 5", kind, n)
		}
	}
}
