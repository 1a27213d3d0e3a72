package treemap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Total() != 0 {
		t.Fatalf("Total = %v, want 0", tr.Total())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree reported a hit")
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree reported a hit")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree reported a hit")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree reported success")
	}
	if got := tr.PrefixSum(10); got != 0 {
		t.Fatalf("PrefixSum = %v, want 0", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGet(t *testing.T) {
	tr := New()
	tr.Put(5, 50)
	tr.Put(3, 30)
	tr.Put(8, 80)
	if v, ok := tr.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) = %v,%v", v, ok)
	}
	tr.Put(3, 31) // replace
	if v, _ := tr.Get(3); v != 31 {
		t.Fatalf("Get(3) after replace = %v, want 31", v)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Total() != 50+31+80 {
		t.Fatalf("Total = %v", tr.Total())
	}
}

func TestAddMergesAndInserts(t *testing.T) {
	tr := New()
	tr.Add(7, 1)
	tr.Add(7, 2)
	if v, _ := tr.Get(7); v != 3 {
		t.Fatalf("Get(7) = %v, want 3", v)
	}
	tr.Add(7, -3)
	if v, ok := tr.Get(7); !ok || v != 0 {
		t.Fatalf("zero-valued entry should remain present: %v,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestSingleNode(t *testing.T) {
	tr := New()
	tr.Put(42, 7)
	if mn, _ := tr.Min(); mn != 42 {
		t.Fatalf("Min = %v", mn)
	}
	if mx, _ := tr.Max(); mx != 42 {
		t.Fatalf("Max = %v", mx)
	}
	if got := tr.PrefixSum(42); got != 7 {
		t.Fatalf("PrefixSum(42) = %v", got)
	}
	if got := tr.PrefixSumLess(42); got != 0 {
		t.Fatalf("PrefixSumLess(42) = %v", got)
	}
	if !tr.Delete(42) {
		t.Fatal("Delete failed")
	}
	if tr.Len() != 0 || tr.root != nil {
		t.Fatal("tree not empty after deleting only node")
	}
}

func TestPrefixSumBoundaries(t *testing.T) {
	tr := New()
	for _, k := range []float64{10, 20, 30, 40, 50} {
		tr.Put(k, k)
	}
	cases := []struct {
		k         float64
		le, less  float64
		ge, great float64
	}{
		{5, 0, 0, 150, 150},
		{10, 10, 0, 150, 140},
		{25, 30, 30, 120, 120},
		{30, 60, 30, 120, 90},
		{50, 150, 100, 50, 0},
		{55, 150, 150, 0, 0},
	}
	for _, c := range cases {
		if got := tr.PrefixSum(c.k); got != c.le {
			t.Errorf("PrefixSum(%v) = %v, want %v", c.k, got, c.le)
		}
		if got := tr.PrefixSumLess(c.k); got != c.less {
			t.Errorf("PrefixSumLess(%v) = %v, want %v", c.k, got, c.less)
		}
		if got := tr.SuffixSum(c.k); got != c.ge {
			t.Errorf("SuffixSum(%v) = %v, want %v", c.k, got, c.ge)
		}
		if got := tr.SuffixSumGreater(c.k); got != c.great {
			t.Errorf("SuffixSumGreater(%v) = %v, want %v", c.k, got, c.great)
		}
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	keys := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}
	for _, k := range keys {
		tr.Put(k, k*10)
	}
	var got []float64
	tr.Ascend(func(k, v float64) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %v", k)
		}
		got = append(got, k)
		return true
	})
	if !sort.Float64sAreSorted(got) || len(got) != len(keys) {
		t.Fatalf("Ascend out of order: %v", got)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for k := 1.0; k <= 10; k++ {
		tr.Put(k, 1)
	}
	var n int
	tr.Ascend(func(k, _ float64) bool {
		n++
		return k < 3
	})
	if n != 3 {
		t.Fatalf("visited %d entries, want 3", n)
	}
}

func TestDeleteAllAscending(t *testing.T) {
	tr := New()
	const n = 200
	for i := 0; i < n; i++ {
		tr.Put(float64(i), float64(i))
	}
	for i := 0; i < n; i++ {
		if !tr.Delete(float64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after Delete(%d): %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
}

func TestDeleteAllDescending(t *testing.T) {
	tr := New()
	const n = 200
	for i := 0; i < n; i++ {
		tr.Put(float64(i), float64(i))
	}
	for i := n - 1; i >= 0; i-- {
		if !tr.Delete(float64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after Delete(%d): %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDeleteAbsentKey(t *testing.T) {
	tr := New()
	tr.Put(1, 1)
	tr.Put(2, 2)
	if tr.Delete(3) {
		t.Fatal("Delete(3) reported success for absent key")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len changed: %d", tr.Len())
	}
}

func TestNegativeAndFractionalKeys(t *testing.T) {
	tr := New()
	keys := []float64{-5.5, -1.25, 0, 2.75, 100.5}
	for _, k := range keys {
		tr.Put(k, 1)
	}
	if got := tr.PrefixSum(0); got != 3 {
		t.Fatalf("PrefixSum(0) = %v, want 3", got)
	}
	if got := tr.PrefixSum(-1.25); got != 2 {
		t.Fatalf("PrefixSum(-1.25) = %v, want 2", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// model is a reference implementation backed by a plain map.
type model map[float64]float64

func (m model) prefixSum(k float64) float64 {
	var s float64
	for key, v := range m {
		if key <= k {
			s += v
		}
	}
	return s
}

func (m model) total() float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func TestRandomOpsAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		m := model{}
		for op := 0; op < 3000; op++ {
			k := float64(rng.Intn(300))
			switch rng.Intn(4) {
			case 0:
				v := float64(rng.Intn(1000))
				tr.Put(k, v)
				m[k] = v
			case 1:
				dv := float64(rng.Intn(100) - 50)
				tr.Add(k, dv)
				m[k] += dv
			case 2:
				_, want := m[k]
				if got := tr.Delete(k); got != want {
					t.Fatalf("seed %d op %d: Delete(%v) = %v, want %v", seed, op, k, got, want)
				}
				delete(m, k)
			case 3:
				q := float64(rng.Intn(350) - 20)
				if got, want := tr.PrefixSum(q), m.prefixSum(q); got != want {
					t.Fatalf("seed %d op %d: PrefixSum(%v) = %v, want %v", seed, op, q, got, want)
				}
			}
			if tr.Len() != len(m) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, tr.Len(), len(m))
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := tr.Total(), m.total(); got != want {
			t.Fatalf("seed %d: Total = %v, want %v", seed, got, want)
		}
	}
}

func TestQuickPrefixSumMatchesSortedScan(t *testing.T) {
	f := func(keys []int16, queries []int16) bool {
		tr := New()
		m := model{}
		for i, k := range keys {
			kf := float64(k)
			v := float64(i%17) - 8
			tr.Add(kf, v)
			m[kf] += v
		}
		if tr.Len() != len(m) {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		for _, q := range queries {
			qf := float64(q)
			if tr.PrefixSum(qf) != m.prefixSum(qf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesRank(t *testing.T) {
	f := func(keys []int8, q int8) bool {
		tr := New()
		uniq := map[float64]bool{}
		for _, k := range keys {
			tr.Put(float64(k), 1)
			uniq[float64(k)] = true
		}
		var want int
		for k := range uniq {
			if k <= float64(q) {
				want++
			}
		}
		// Every value is 1, so the prefix sum at q is q's rank.
		return tr.PrefixSum(float64(q)) == float64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceHeightLogarithmic(t *testing.T) {
	tr := New()
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Put(float64(i), 1) // adversarial sorted insertion order
	}
	h := height(tr.root)
	max := 2 * int(math.Ceil(math.Log2(n+1)))
	if h > max {
		t.Fatalf("height %d exceeds 2*log2(n) = %d", h, max)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestKeysSorted(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tr.Put(float64(rng.Intn(10000)), 1)
	}
	ks := tr.Keys()
	if !sort.Float64sAreSorted(ks) {
		t.Fatal("Keys not sorted")
	}
	if len(ks) != tr.Len() {
		t.Fatalf("Keys len %d != Len %d", len(ks), tr.Len())
	}
}

// sameTree reports the first field in which two subtrees differ, comparing
// floats by bit pattern: shape, colours, keys, values and every augmented
// field.
func sameTree(a, b *node) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return "shape"
	case a.color != b.color || a.size != b.size:
		return "colour/size"
	case math.Float64bits(a.key) != math.Float64bits(b.key) || math.Float64bits(a.value) != math.Float64bits(b.value):
		return "key/value"
	case math.Float64bits(a.sum) != math.Float64bits(b.sum):
		return "sum"
	case a.minKey != b.minKey || a.maxKey != b.maxKey:
		return "min/max"
	}
	if d := sameTree(a.left, b.left); d != "" {
		return d
	}
	return sameTree(a.right, b.right)
}

// TestAddMatchesGetPut is the differential for the single-descent Add: over
// random adds and deletes with fractional keys and values (every sum
// order-sensitive), the tree must stay node for node, bit for bit, the tree
// that the old form — Get, then recursive Put — builds.
func TestAddMatchesGetPut(t *testing.T) {
	oldAdd := func(t *Tree, k, dv float64) {
		if v, ok := t.Get(k); ok {
			t.Put(k, v+dv)
			return
		}
		t.Put(k, dv)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(), New()
		span := 40 << uint(seed) // from a few dozen keys to a few thousand
		for step := 0; step < 6000; step++ {
			k := 0.1*float64(rng.Intn(span)) - 7.3
			if rng.Intn(4) == 0 {
				if got.Delete(k) != want.Delete(k) {
					t.Fatalf("seed %d step %d: Delete(%v) disagrees", seed, step, k)
				}
			} else {
				dv := 0.3*float64(rng.Intn(50)) - 4.9
				got.Add(k, dv)
				oldAdd(want, k, dv)
			}
			if d := sameTree(got.root, want.root); d != "" {
				t.Fatalf("seed %d step %d (key %v): trees differ in %s", seed, step, k, d)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
