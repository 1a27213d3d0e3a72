package rpai

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("Len=%d Total=%v", tr.Len(), tr.Total())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get hit on empty tree")
	}
	if tr.Delete(1) {
		t.Fatal("Delete succeeded on empty tree")
	}
	tr.ShiftKeys(0, 5) // must not panic
	tr.ShiftKeysInclusive(0, -5)
	if got := tr.GetSum(100); got != 0 {
		t.Fatalf("GetSum = %v", got)
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min hit on empty tree")
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := New()
	keys := []float64{40, 20, 60, 10, 30, 50, 70}
	for _, k := range keys {
		tr.Put(k, k/10)
	}
	for _, k := range keys {
		if v, ok := tr.Get(k); !ok || v != k/10 {
			t.Fatalf("Get(%v) = %v,%v", k, v, ok)
		}
	}
	if _, ok := tr.Get(55); ok {
		t.Fatal("Get(55) hit for absent key")
	}
	tr.Put(40, 99)
	if v, _ := tr.Get(40); v != 99 {
		t.Fatalf("Put replace failed: %v", v)
	}
	if !tr.Delete(40) || tr.Contains(40) {
		t.Fatal("Delete(40) failed")
	}
	if tr.Delete(40) {
		t.Fatal("second Delete(40) succeeded")
	}
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddMerges(t *testing.T) {
	tr := New()
	tr.Add(10, 5)
	tr.Add(10, 7)
	tr.Add(20, 1)
	if v, _ := tr.Get(10); v != 12 {
		t.Fatalf("Get(10) = %v", v)
	}
	if tr.Total() != 13 {
		t.Fatalf("Total = %v", tr.Total())
	}
}

// TestGetSumFigure3 reproduces the example run of Figure 3 in the paper:
// entries {10:3, 20:3(v=3? value), ...}. The figure uses <key, value> pairs
// <40,2> <20,3> <60,8> <10,3> <30,6> <50,2> <70,7>; getSum(50) = 12+2+2 = 16.
func TestGetSumFigure3(t *testing.T) {
	tr := New()
	pairs := map[float64]float64{40: 2, 20: 3, 60: 8, 10: 3, 30: 6, 50: 2, 70: 7}
	for k, v := range pairs {
		tr.Put(k, v)
	}
	if got := tr.GetSum(50); got != 16 {
		t.Fatalf("GetSum(50) = %v, want 16", got)
	}
	if got := tr.GetSum(5); got != 0 {
		t.Fatalf("GetSum(5) = %v, want 0", got)
	}
	if got := tr.GetSum(70); got != 31 {
		t.Fatalf("GetSum(70) = %v, want 31 (total)", got)
	}
	if got := tr.GetSumLess(40); got != 12 {
		t.Fatalf("GetSumLess(40) = %v, want 12", got)
	}
	if got := tr.SuffixSumGreater(50); got != 15 {
		t.Fatalf("SuffixSumGreater(50) = %v, want 15", got)
	}
	if got := tr.SuffixSum(50); got != 17 {
		t.Fatalf("SuffixSum(50) = %v, want 17", got)
	}
}

// TestShiftKeysFigure4 reproduces Figure 4: keys {7,8,9,11,13,14,19,20},
// shiftKeys(k=9, d=10) shifts all keys > 9 by 10.
func TestShiftKeysFigure4(t *testing.T) {
	tr := New()
	keys := []float64{13, 9, 19, 8, 11, 14, 20, 7}
	for _, k := range keys {
		tr.Put(k, 1)
	}
	tr.ShiftKeys(9, 10)
	want := []float64{7, 8, 9, 21, 23, 24, 29, 30}
	got := tr.Keys()
	if !equalFloats(got, want) {
		t.Fatalf("keys after shift = %v, want %v", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range want {
		if v, ok := tr.Get(k); !ok || v != 1 {
			t.Fatalf("Get(%v) = %v,%v after shift", k, v, ok)
		}
	}
}

// TestShiftKeysFigure5 reproduces Figure 5's worst case: keys
// {7,8,9,11,13,14,19,20}, shiftKeys(k=19, d=-15) moves 20 to 5.
func TestShiftKeysFigure5(t *testing.T) {
	tr := New()
	for _, k := range []float64{13, 9, 19, 8, 11, 14, 20, 7} {
		tr.Put(k, float64(int(k)))
	}
	tr.ShiftKeys(19, -15)
	want := []float64{5, 7, 8, 9, 11, 13, 14, 19}
	if got := tr.Keys(); !equalFloats(got, want) {
		t.Fatalf("keys after shift = %v, want %v", got, want)
	}
	if v, _ := tr.Get(5); v != 20 {
		t.Fatalf("value of moved key = %v, want 20", v)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeShiftMergesCollidingKeys(t *testing.T) {
	// Keys 10 and 20 with values 3 and 4; shifting keys > 15 by -10 moves 20
	// onto 10, which must merge the aggregates (paper section 3.2.4).
	tr := New()
	tr.Put(10, 3)
	tr.Put(20, 4)
	tr.ShiftKeys(15, -10)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if v, _ := tr.Get(10); v != 7 {
		t.Fatalf("merged value = %v, want 7", v)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShiftKeysInclusive(t *testing.T) {
	tr := New()
	for _, k := range []float64{10, 20, 30} {
		tr.Put(k, 1)
	}
	tr.ShiftKeysInclusive(20, 5)
	if got := tr.Keys(); !equalFloats(got, []float64{10, 25, 35}) {
		t.Fatalf("keys = %v", got)
	}
	tr.ShiftKeysInclusive(25, -15)
	// 25 -> 10 (merges with 10), 35 -> 20.
	if got := tr.Keys(); !equalFloats(got, []float64{10, 20}) {
		t.Fatalf("keys = %v", got)
	}
	if v, _ := tr.Get(10); v != 2 {
		t.Fatalf("merged value = %v, want 2", v)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShiftZeroOffsetNoop(t *testing.T) {
	tr := New()
	tr.Put(1, 1)
	tr.Put(2, 2)
	tr.ShiftKeys(0, 0)
	if got := tr.Keys(); !equalFloats(got, []float64{1, 2}) {
		t.Fatalf("keys = %v", got)
	}
}

func TestShiftBoundaryExclusivity(t *testing.T) {
	tr := New()
	tr.Put(10, 1)
	tr.Put(11, 1)
	tr.ShiftKeys(10, 5) // strictly greater: 10 stays
	if got := tr.Keys(); !equalFloats(got, []float64{10, 16}) {
		t.Fatalf("keys = %v", got)
	}
	tr.ShiftKeysInclusive(10, 5) // 10 moves too
	if got := tr.Keys(); !equalFloats(got, []float64{15, 21}) {
		t.Fatalf("keys = %v", got)
	}
}

func TestShiftAllAndNone(t *testing.T) {
	tr := New()
	for _, k := range []float64{5, 6, 7} {
		tr.Put(k, 1)
	}
	tr.ShiftKeys(0, 100) // all shift
	if got := tr.Keys(); !equalFloats(got, []float64{105, 106, 107}) {
		t.Fatalf("keys = %v", got)
	}
	tr.ShiftKeys(200, 100) // none shift
	if got := tr.Keys(); !equalFloats(got, []float64{105, 106, 107}) {
		t.Fatalf("keys = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeKeysAndOffsets(t *testing.T) {
	tr := New()
	for _, k := range []float64{-30, -10, 0, 10, 30} {
		tr.Put(k, 1)
	}
	tr.ShiftKeys(-20, -5)
	if got := tr.Keys(); !equalFloats(got, []float64{-30, -15, -5, 5, 25}) {
		t.Fatalf("keys = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// model mirrors the tree with a plain map for differential testing.
type model map[float64]float64

func (m model) shift(k, d float64, inclusive bool) {
	next := model{}
	for key, v := range m {
		nk := key
		if key > k || (inclusive && key == k) {
			nk = key + d
		}
		next[nk] += v
	}
	for k := range m {
		delete(m, k)
	}
	for k, v := range next {
		m[k] = v
	}
}

func (m model) getSum(k float64) float64 {
	var s float64
	for key, v := range m {
		if key <= k {
			s += v
		}
	}
	return s
}

func (m model) keys() []float64 {
	out := make([]float64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}

// TestDifferentialRandomOps drives Tree, Reference and the map model through
// identical random operation sequences and requires full agreement plus
// structural validity after every step.
func TestDifferentialRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := NewReference()
		m := model{}
		for op := 0; op < 1200; op++ {
			switch rng.Intn(8) {
			case 0, 1:
				k := float64(rng.Intn(200))
				v := float64(rng.Intn(50) + 1)
				tr.Add(k, v)
				ref.Add(k, v)
				m[k] += v
			case 2:
				k := float64(rng.Intn(200))
				v := float64(rng.Intn(50))
				tr.Put(k, v)
				ref.Put(k, v)
				m[k] = v
			case 3:
				k := float64(rng.Intn(200))
				want := false
				if _, ok := m[k]; ok {
					want = true
				}
				got := tr.Delete(k)
				refGot := ref.Delete(k)
				if got != want || refGot != want {
					t.Fatalf("seed %d op %d: Delete(%v) tree=%v ref=%v want %v", seed, op, k, got, refGot, want)
				}
				delete(m, k)
			case 4:
				k := float64(rng.Intn(250) - 20)
				d := float64(rng.Intn(60) + 1)
				tr.ShiftKeys(k, d)
				ref.ShiftKeys(k, d)
				m.shift(k, d, false)
			case 5:
				k := float64(rng.Intn(250) - 20)
				d := -float64(rng.Intn(60) + 1)
				tr.ShiftKeys(k, d)
				ref.ShiftKeys(k, d)
				m.shift(k, d, false)
			case 6:
				k := float64(rng.Intn(250) - 20)
				d := float64(rng.Intn(120) - 60)
				tr.ShiftKeysInclusive(k, d)
				// Reference implements only the paper's exclusive variant;
				// emulate inclusive by shifting above k-1 when k is integral
				// and no key sits in (k-1, k).
				ref.ShiftKeys(k-0.5, d)
				m.shift(k, d, true)
			case 7:
				q := float64(rng.Intn(300) - 30)
				want := m.getSum(q)
				if got := tr.GetSum(q); got != want {
					t.Fatalf("seed %d op %d: GetSum(%v) = %v, want %v", seed, op, q, got, want)
				}
				if got := ref.GetSum(q); got != want {
					t.Fatalf("seed %d op %d: ref GetSum(%v) = %v, want %v", seed, op, q, got, want)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if err := ref.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if tr.Len() != len(m) || ref.Len() != len(m) {
				t.Fatalf("seed %d op %d: Len tree=%d ref=%d model=%d", seed, op, tr.Len(), ref.Len(), len(m))
			}
		}
		if !equalFloats(tr.Keys(), m.keys()) {
			t.Fatalf("seed %d: final keys diverge:\n tree: %v\nmodel: %v", seed, tr.Keys(), m.keys())
		}
		if !equalFloats(ref.Keys(), m.keys()) {
			t.Fatalf("seed %d: reference final keys diverge", seed)
		}
		for k, v := range m {
			if got, _ := tr.Get(k); got != v {
				t.Fatalf("seed %d: value mismatch at %v: %v vs %v", seed, k, got, v)
			}
		}
	}
}

// TestQuickShiftPreservesSumAndCount checks with testing/quick that ShiftKeys
// never changes Total or (absent collisions) Len.
func TestQuickShiftPreservesSumAndCount(t *testing.T) {
	f := func(keys []int16, k int16, d int8) bool {
		tr := New()
		uniq := map[float64]bool{}
		for i, key := range keys {
			tr.Add(float64(key), float64(i%7+1))
			uniq[float64(key)] = true
		}
		before := tr.Total()
		tr.ShiftKeys(float64(k), float64(d))
		if tr.Total() != before {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		// Count: shifted keys land at key+d; count only shrinks on merges.
		merged := map[float64]bool{}
		for key := range uniq {
			nk := key
			if key > float64(k) {
				nk = key + float64(d)
			}
			merged[nk] = true
		}
		return tr.Len() == len(merged)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGetSumMatchesModel cross-checks GetSum against a brute-force scan.
func TestQuickGetSumMatchesModel(t *testing.T) {
	f := func(keys []int16, queries []int16) bool {
		tr := New()
		m := model{}
		for i, k := range keys {
			v := float64(i%13) + 1
			tr.Add(float64(k), v)
			m[float64(k)] += v
		}
		for _, q := range queries {
			if tr.GetSum(float64(q)) != m.getSum(float64(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateMaintenancePattern simulates exactly how the VWAP executor
// uses the tree: keys are running sums of volumes, inserts shift a suffix up,
// deletions shift it down, and the special case of section 3.2.4 (at most one
// collision per deletion) holds throughout.
func TestAggregateMaintenancePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	m := model{}
	for i := 0; i < 2000; i++ {
		k := float64(rng.Intn(5000))
		d := float64(rng.Intn(100) + 1)
		if rng.Intn(4) == 0 {
			d = -d
		}
		tr.ShiftKeys(k, d)
		m.shift(k, d, false)
		if rng.Intn(2) == 0 {
			nk := float64(rng.Intn(5000))
			v := float64(rng.Intn(100))
			tr.Add(nk, v)
			m[nk] += v
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !equalFloats(tr.Keys(), m.keys()) {
		t.Fatal("keys diverged from model")
	}
}

func TestHeightLogarithmicUnderSortedInsert(t *testing.T) {
	tr := New()
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Put(float64(i), 1)
	}
	h := height(tr, tr.root)
	if max := 2 * int(math.Ceil(math.Log2(n+1))); h > max {
		t.Fatalf("height %d exceeds %d", h, max)
	}
}

func TestHeightLogarithmicUnderShifts(t *testing.T) {
	// Interleave inserts and shifts, then check the tree is still balanced.
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tr.Add(float64(rng.Intn(100000)), 1)
		if i%3 == 0 {
			tr.ShiftKeys(float64(rng.Intn(100000)), float64(rng.Intn(50)+1))
		}
		if i%7 == 0 {
			tr.ShiftKeys(float64(rng.Intn(100000)), -float64(rng.Intn(50)+1))
		}
	}
	n := tr.Len()
	if h, max := height(tr, tr.root), 2*int(math.Ceil(math.Log2(float64(n)+1))); h > max {
		t.Fatalf("height %d exceeds %d for n=%d", h, max, n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func height(tr *Tree, i int32) int {
	if i < 0 {
		return 0
	}
	l, r := height(tr, tr.nodes[i].left), height(tr, tr.nodes[i].right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestMinMax(t *testing.T) {
	tr := New()
	for _, k := range []float64{50, 20, 80, 10, 90} {
		tr.Put(k, 1)
	}
	if mn, _ := tr.Min(); mn != 10 {
		t.Fatalf("Min = %v", mn)
	}
	if mx, _ := tr.Max(); mx != 90 {
		t.Fatalf("Max = %v", mx)
	}
	tr.ShiftKeys(85, 100)
	if mx, _ := tr.Max(); mx != 190 {
		t.Fatalf("Max after shift = %v", mx)
	}
	tr.Delete(10)
	if mn, _ := tr.Min(); mn != 20 {
		t.Fatalf("Min after delete = %v", mn)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 1; i <= 10; i++ {
		tr.Put(float64(i), 1)
	}
	var n int
	tr.Ascend(func(k, _ float64) bool {
		n++
		return k < 4
	})
	if n != 4 {
		t.Fatalf("visited %d", n)
	}
}

func TestDeleteStressAllOrders(t *testing.T) {
	const n = 300
	perms := [][]int{ascending(n), descending(n), shuffled(n, 3)}
	for pi, order := range perms {
		tr := New()
		for i := 0; i < n; i++ {
			tr.Put(float64(i), float64(i))
		}
		for _, k := range order {
			if !tr.Delete(float64(k)) {
				t.Fatalf("perm %d: Delete(%d) failed", pi, k)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("perm %d after Delete(%d): %v", pi, k, err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("perm %d: Len = %d", pi, tr.Len())
		}
	}
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func descending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func shuffled(n int, seed int64) []int {
	out := ascending(n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNonFiniteKeysPanic(t *testing.T) {
	cases := []func(*Tree){
		func(tr *Tree) { tr.Put(math.NaN(), 1) },
		func(tr *Tree) { tr.Add(math.Inf(1), 1) },
		func(tr *Tree) { tr.Put(1, 1); tr.ShiftKeys(0, math.NaN()) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on non-finite input", i)
				}
			}()
			f(New())
		}()
	}
}

func TestHigherLowerRPAI(t *testing.T) {
	tr := New()
	for _, k := range []float64{10, 20, 30} {
		tr.Put(k, 1)
	}
	if h, ok := tr.Higher(20); !ok || h != 30 {
		t.Fatalf("Higher(20) = %v,%v", h, ok)
	}
	if h, ok := tr.Higher(5); !ok || h != 10 {
		t.Fatalf("Higher(5) = %v,%v", h, ok)
	}
	if _, ok := tr.Higher(30); ok {
		t.Fatal("Higher(30) ok")
	}
	if l, ok := tr.Lower(20); !ok || l != 10 {
		t.Fatalf("Lower(20) = %v,%v", l, ok)
	}
	if _, ok := tr.Lower(10); ok {
		t.Fatal("Lower(10) ok")
	}
	tr.ShiftKeys(15, -3) // 20->17, 30->27
	if h, ok := tr.Higher(10); !ok || h != 17 {
		t.Fatalf("Higher after shift = %v,%v", h, ok)
	}
}

// rankOf counts tr's keys <= q in key order.
func rankOf(tr *Tree, q float64) int {
	n := 0
	tr.Ascend(func(k, _ float64) bool {
		if k > q {
			return false
		}
		n++
		return true
	})
	return n
}

// TestRankMatchesModelRandom holds the tree's key order under random adds
// and shifts of either sign to a map model: after every operation the rank
// of a random probe point equals the model's.
func TestRankMatchesModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := New()
	m := map[float64]float64{}
	for i := 0; i < 800; i++ {
		k := float64(rng.Intn(500))
		tr.Add(k, 1)
		m[k] += 1
		if i%3 == 0 {
			d := float64(rng.Intn(20) - 10)
			kk := float64(rng.Intn(500))
			tr.ShiftKeys(kk, d)
			next := map[float64]float64{}
			for key, v := range m {
				nk := key
				if key > kk {
					nk = key + d
				}
				next[nk] += v
			}
			m = next
		}
		q := float64(rng.Intn(600) - 50)
		var want int
		for key := range m {
			if key <= q {
				want++
			}
		}
		if got := rankOf(tr, q); got != want {
			t.Fatalf("op %d: rank(%v) = %d want %d", i, q, got, want)
		}
	}
}

// TestValidateComparesSumBits plants a -0 leftSum where update computes +0
// (the left child holds a zero value): equal as floats, different bits, so a
// prefix read adding it could come out with a different sign. Validate must
// report it stale at the parent.
func TestValidateComparesSumBits(t *testing.T) {
	tr := New()
	tr.Put(10, 5)
	tr.Put(0, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	root := tr.nodeAt(tr.root)
	if root.key != 10 || root.left < 0 || math.Float64bits(root.leftSum) != 0 {
		t.Fatalf("the root at key %v caches leftSum %v, want +0 over a left child at key 10", root.key, root.leftSum)
	}
	root.leftSum = math.Copysign(0, -1)
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "leftSum mismatch at key 10") {
		t.Fatalf("a -0 leftSum where update makes +0: Validate says %v", err)
	}
}
