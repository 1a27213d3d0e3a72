package rpai

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// FuzzTreeOps decodes the fuzz input as a sequence of tree operations and
// drives four implementations in lockstep: the balanced production Tree, the
// arena-backed ArenaTree (which must stay bit-identical to Tree), the
// paper's unbalanced parent-relative Reference BST (Algorithms 1 and 2
// verbatim), and a plain map model. Mutations — Add, Put, Delete, ShiftKeys,
// ShiftKeysInclusive — are applied to all three; queries — Get, GetSum,
// GetSumLess, SuffixSum, SuffixSumGreater, Min, Max, Total — are cross-checked
// against both oracles; and the structural invariants of both trees (the
// balanced tree's balance/order/augmentation checks and the reference's
// parent-relative BST order) are validated after every operation.
//
// Run with `go test -fuzz FuzzTreeOps`; the committed corpus under
// testdata/fuzz executes under plain `go test`.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 10, 5, 1, 20, 7, 4, 15, 30, 5, 25, 40})
	f.Add([]byte{2, 10, 0, 3, 200, 9, 0, 1, 1, 5, 0, 50})
	f.Add([]byte{4, 0, 1, 4, 0, 2, 5, 255, 255, 1, 3, 3})
	f.Add([]byte{0, 5, 1, 0, 10, 2, 4, 5, 246, 7, 0, 0, 2, 5, 0, 8, 10, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 3, 1, 240, 9, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		ar := NewArena()
		ref := NewReference()
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
		// The reference tree degrades to linear depth (and quadratic fixTree
		// repairs) on adversarial inputs — that degradation is why the
		// balanced Tree exists — so bound the per-input operation count.
		const maxOps = 256
		for i := 0; i+2 < len(data) && i/3 < maxOps; i += 3 {
			op := data[i] % 10
			k := float64(int8(data[i+1])) // signed keys
			v := float64(data[i+2]%64) - 16
			switch op {
			case 0:
				tr.Add(k, v)
				ar.Add(k, v)
				ref.Add(k, v)
				m[k] += v
			case 1:
				tr.Put(k, v)
				ar.Put(k, v)
				ref.Put(k, v)
				m[k] = v
			case 2:
				_, want := m[k]
				if got := tr.Delete(k); got != want {
					t.Fatalf("Delete(%v) = %v want %v", k, got, want)
				}
				if got := ar.Delete(k); got != want {
					t.Fatalf("arena Delete(%v) = %v want %v", k, got, want)
				}
				if got := ref.Delete(k); got != want {
					t.Fatalf("reference Delete(%v) = %v want %v", k, got, want)
				}
				delete(m, k)
			case 3:
				tr.ShiftKeys(k, v)
				ar.ShiftKeys(k, v)
				ref.ShiftKeys(k, v)
				modelShift(k, v, false)
			case 4:
				tr.ShiftKeysInclusive(k, v)
				ar.ShiftKeysInclusive(k, v)
				ref.ShiftKeysInclusive(k, v)
				modelShift(k, v, true)
			case 5:
				var want float64
				for key, val := range m {
					if key <= k {
						want += val
					}
				}
				if got := tr.GetSum(k); got != want {
					t.Fatalf("GetSum(%v) = %v want %v", k, got, want)
				}
				if got := ar.GetSum(k); got != want {
					t.Fatalf("arena GetSum(%v) = %v want %v", k, got, want)
				}
				if got := ref.GetSum(k); got != want {
					t.Fatalf("reference GetSum(%v) = %v want %v", k, got, want)
				}
			case 6:
				if got, ok := tr.Get(k); ok != containsKey(m, k) || (ok && got != m[k]) {
					t.Fatalf("Get(%v) = %v,%v want %v", k, got, ok, m[k])
				}
				if got, ok := ar.Get(k); ok != containsKey(m, k) || (ok && got != m[k]) {
					t.Fatalf("arena Get(%v) = %v,%v want %v", k, got, ok, m[k])
				}
				if got, ok := ref.Get(k); ok != containsKey(m, k) || (ok && got != m[k]) {
					t.Fatalf("reference Get(%v) = %v,%v want %v", k, got, ok, m[k])
				}
			case 7:
				// Min/max-key queries against both the model and the oracle.
				wantMin, wantMax, any := 0.0, 0.0, false
				for key := range m {
					if !any || key < wantMin {
						wantMin = key
					}
					if !any || key > wantMax {
						wantMax = key
					}
					any = true
				}
				if got, ok := tr.Min(); ok != any || (any && got != wantMin) {
					t.Fatalf("Min() = %v,%v want %v,%v", got, ok, wantMin, any)
				}
				if got, ok := tr.Max(); ok != any || (any && got != wantMax) {
					t.Fatalf("Max() = %v,%v want %v,%v", got, ok, wantMax, any)
				}
				if got, ok := ar.Min(); ok != any || (any && got != wantMin) {
					t.Fatalf("arena Min() = %v,%v want %v,%v", got, ok, wantMin, any)
				}
				if got, ok := ar.Max(); ok != any || (any && got != wantMax) {
					t.Fatalf("arena Max() = %v,%v want %v,%v", got, ok, wantMax, any)
				}
				if got, ok := ref.Min(); ok != any || (any && got != wantMin) {
					t.Fatalf("reference Min() = %v,%v want %v,%v", got, ok, wantMin, any)
				}
				if got, ok := ref.Max(); ok != any || (any && got != wantMax) {
					t.Fatalf("reference Max() = %v,%v want %v,%v", got, ok, wantMax, any)
				}
			case 8:
				var less, suffix, greater float64
				for key, val := range m {
					if key < k {
						less += val
					}
					if key >= k {
						suffix += val
					}
					if key > k {
						greater += val
					}
				}
				if got := tr.GetSumLess(k); got != less {
					t.Fatalf("GetSumLess(%v) = %v want %v", k, got, less)
				}
				if got := tr.SuffixSum(k); got != suffix {
					t.Fatalf("SuffixSum(%v) = %v want %v", k, got, suffix)
				}
				if got := tr.SuffixSumGreater(k); got != greater {
					t.Fatalf("SuffixSumGreater(%v) = %v want %v", k, got, greater)
				}
				if got := ar.GetSumLess(k); got != less {
					t.Fatalf("arena GetSumLess(%v) = %v want %v", k, got, less)
				}
				if got := ar.SuffixSum(k); got != suffix {
					t.Fatalf("arena SuffixSum(%v) = %v want %v", k, got, suffix)
				}
				if got := ar.SuffixSumGreater(k); got != greater {
					t.Fatalf("arena SuffixSumGreater(%v) = %v want %v", k, got, greater)
				}
				if got := ref.GetSumLess(k); got != less {
					t.Fatalf("reference GetSumLess(%v) = %v want %v", k, got, less)
				}
			case 9:
				var want float64
				for _, val := range m {
					want += val
				}
				if got := tr.Total(); got != want {
					t.Fatalf("Total() = %v want %v", got, want)
				}
				if got := ar.Total(); got != want {
					t.Fatalf("arena Total() = %v want %v", got, want)
				}
				if got := ref.Total(); got != want {
					t.Fatalf("reference Total() = %v want %v", got, want)
				}
			}
			// Structural invariants of both trees, after every operation.
			if err := tr.Validate(); err != nil {
				t.Fatalf("after op %d: %v", i/3, err)
			}
			if err := ar.Validate(); err != nil {
				t.Fatalf("arena after op %d: %v", i/3, err)
			}
			if err := ref.Validate(); err != nil {
				t.Fatalf("after op %d: %v", i/3, err)
			}
			if tr.Len() != len(m) {
				t.Fatalf("Len = %d want %d", tr.Len(), len(m))
			}
			if ar.Len() != len(m) {
				t.Fatalf("arena Len = %d want %d", ar.Len(), len(m))
			}
			if ref.Len() != len(m) {
				t.Fatalf("reference Len = %d want %d", ref.Len(), len(m))
			}
		}
		// Final full comparison: Tree, ArenaTree, Reference and model agree
		// entry by entry, and the arena tree's structure is bit-identical to
		// the pointer tree (same snapshot bytes).
		keys := tr.Keys()
		arKeys := ar.Keys()
		refKeys := ref.Keys()
		want := make([]float64, 0, len(m))
		for k := range m {
			want = append(want, k)
		}
		sort.Float64s(want)
		if len(keys) != len(want) || len(arKeys) != len(want) || len(refKeys) != len(want) {
			t.Fatalf("key counts %d/%d/%d want %d", len(keys), len(arKeys), len(refKeys), len(want))
		}
		for i := range keys {
			if keys[i] != want[i] || arKeys[i] != want[i] || refKeys[i] != want[i] {
				t.Fatalf("keys diverge at %d: tree %v, arena %v, reference %v, model %v",
					i, keys[i], arKeys[i], refKeys[i], want[i])
			}
			tv, _ := tr.Get(keys[i])
			av, _ := ar.Get(keys[i])
			rv, _ := ref.Get(keys[i])
			if tv != m[keys[i]] || av != m[keys[i]] || rv != m[keys[i]] {
				t.Fatalf("values diverge at key %v: tree %v, arena %v, reference %v, model %v",
					keys[i], tv, av, rv, m[keys[i]])
			}
		}
		var tb, ab bytes.Buffer
		if err := tr.Encode(&tb); err != nil {
			t.Fatal(err)
		}
		if err := ar.Encode(&ab); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tb.Bytes(), ab.Bytes()) {
			t.Fatal("pointer and arena trees diverged structurally (snapshot bytes differ)")
		}
	})
}

func containsKey(m map[float64]float64, k float64) bool {
	_, ok := m[k]
	return ok
}

// FuzzPairOps drives the two-lane ArenaPair and two single-lane ArenaTrees —
// one fed lane 0's values, one lane 1's — through the same operation stream
// and requires, after every operation, that each lane of the pair IS the
// single-lane tree: equal Len, both Totals, every GetSum/GetSumLess and
// suffix sum bit for bit, a clean Validate, and an Encode of each lane
// byte-equal to the matching tree's. Lane 1's values are multiples of 0.1,
// which round, so the order of every float addition is under test; keys stay
// small integers and quarters, which the relative-key arithmetic needs exact.
//
// Each operation is four bytes: opcode, key, lane-0 value, lane-1 value.
func FuzzPairOps(f *testing.F) {
	f.Add([]byte{0, 10, 5, 7, 0, 20, 7, 3, 3, 15, 30, 0, 6, 25, 0, 0})
	f.Add([]byte{1, 10, 0, 9, 2, 10, 0, 0, 0, 1, 1, 1, 4, 1, 250, 0, 5, 3, 4, 200})
	f.Add([]byte{5, 0, 9, 17, 5, 4, 9, 33, 3, 2, 240, 0, 3, 0, 230, 0, 6, 9, 0, 0, 7, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pair, a0, a1 := NewArenaPair(), NewArena(), NewArena()
		const maxOps = 128
		for i := 0; i+3 < len(data) && i/4 < maxOps; i += 4 {
			op := data[i] % 8
			k := float64(int8(data[i+1])) / 4
			v0 := float64(data[i+2]%64) - 16
			v1 := 0.1 * (float64(data[i+3]) - 100)
			switch op {
			case 0:
				g0, g1 := pair.Add(k, v0, v1)
				a0.Add(k, v0)
				a1.Add(k, v1)
				w0, _ := a0.Get(k)
				w1, _ := a1.Get(k)
				if !sameBits(g0, w0) || !sameBits(g1, w1) {
					t.Fatalf("op %d: Add(%v) returned (%v, %v), trees hold (%v, %v)", i/4, k, g0, g1, w0, w1)
				}
			case 1:
				pair.Put(k, v0, v1)
				a0.Put(k, v0)
				a1.Put(k, v1)
			case 2:
				got, want := pair.Delete(k), a0.Delete(k)
				if a1.Delete(k) != want || got != want {
					t.Fatalf("op %d: Delete(%v) = %v, trees %v", i/4, k, got, want)
				}
			case 3, 4:
				d := v0 / 2 // shifts by halves, negative included
				if op == 3 {
					pair.ShiftKeys(k, d)
					a0.ShiftKeys(k, d)
					a1.ShiftKeys(k, d)
				} else {
					pair.ShiftKeysInclusive(k, d)
					a0.ShiftKeysInclusive(k, d)
					a1.ShiftKeysInclusive(k, d)
				}
			case 5:
				// A batch with repeats and a run of fresh keys.
				n := int(data[i+2]%6) + 1
				es := make([]PairEntry, n)
				e0, e1 := make([]Entry, n), make([]Entry, n)
				for j := range es {
					kj := k + float64((j*int(data[i+3]))%5)
					es[j] = PairEntry{kj, [2]float64{v0 + float64(j), v1 * float64(j+1)}}
					e0[j] = Entry{kj, es[j].Value[0]}
					e1[j] = Entry{kj, es[j].Value[1]}
				}
				pair.AddMany(es)
				a0.AddMany(e0)
				a1.AddMany(e1)
			case 6:
				for _, inclusive := range []bool{true, false} {
					for lane, tree := range []*ArenaTree{a0, a1} {
						probes := func() []float64 { return []float64{k - 5, k, k, k + 0.25, k + 7} }
						got, want := make([]float64, 5), make([]float64, 5)
						pair.PrefixSums(lane, probes(), got, inclusive)
						tree.PrefixSums(probes(), want, inclusive)
						for j := range got {
							if !sameBits(got[j], want[j]) {
								t.Fatalf("op %d: PrefixSums lane %d inclusive=%v probe %d: %v, tree %v", i/4, lane, inclusive, j, got[j], want[j])
							}
						}
					}
				}
			case 7:
				g0, g1, ok := pair.Get(k)
				w0, ok0 := a0.Get(k)
				w1, _ := a1.Get(k)
				if ok != ok0 || !sameBits(g0, w0) || !sameBits(g1, w1) {
					t.Fatalf("op %d: Get(%v) = (%v, %v, %v), trees (%v, %v, %v)", i/4, k, g0, g1, ok, w0, w1, ok0)
				}
			}
			requirePairIsTrees(t, i/4, pair, a0, a1)
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requirePairIsTrees is FuzzPairOps' per-operation check.
func requirePairIsTrees(t *testing.T, op int, pair *ArenaPair, a0, a1 *ArenaTree) {
	t.Helper()
	if err := pair.Validate(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	if pair.Len() != a0.Len() || pair.Len() != a1.Len() {
		t.Fatalf("op %d: Len %d, trees %d and %d", op, pair.Len(), a0.Len(), a1.Len())
	}
	if t0, t1 := pair.Total(); !sameBits(t0, a0.Total()) || !sameBits(t1, a1.Total()) {
		t.Fatalf("op %d: Total (%v, %v), trees (%v, %v)", op, t0, t1, a0.Total(), a1.Total())
	}
	type sums func(float64) (float64, float64)
	check := func(name string, k float64, got sums, w0, w1 func(float64) float64) {
		if g0, g1 := got(k); !sameBits(g0, w0(k)) || !sameBits(g1, w1(k)) {
			t.Fatalf("op %d: %s(%v) = (%v, %v), trees (%v, %v)", op, name, k, g0, g1, w0(k), w1(k))
		}
	}
	var keys []float64
	pair.Ascend(func(k, _, _ float64) bool {
		keys = append(keys, k)
		return true
	})
	for i, k := range a0.Keys() {
		if keys[i] != k {
			t.Fatalf("op %d: key %d is %v, tree has %v", op, i, keys[i], k)
		}
		for _, p := range []float64{k, k + 0.125} {
			check("GetSum", p, pair.GetSum, a0.GetSum, a1.GetSum)
			check("GetSumLess", p, pair.GetSumLess, a0.GetSumLess, a1.GetSumLess)
			check("SuffixSum", p, pair.SuffixSum, a0.SuffixSum, a1.SuffixSum)
			check("SuffixSumGreater", p, pair.SuffixSumGreater, a0.SuffixSumGreater, a1.SuffixSumGreater)
		}
	}
	var p0, p1, w0, w1 bytes.Buffer
	if err := pair.Encode(&p0, &p1); err != nil {
		t.Fatal(err)
	}
	if err := a0.Encode(&w0); err != nil {
		t.Fatal(err)
	}
	if err := a1.Encode(&w1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p0.Bytes(), w0.Bytes()) || !bytes.Equal(p1.Bytes(), w1.Bytes()) {
		t.Fatalf("op %d: a lane's snapshot differs from its single-lane tree's", op)
	}
	back, err := DecodeArenaPair(&p0, &p1)
	if err != nil {
		t.Fatalf("op %d: DecodeArenaPair: %v", op, err)
	}
	if b0, b1 := back.Total(); !sameBits(b0, a0.Total()) || !sameBits(b1, a1.Total()) || back.Len() != pair.Len() {
		t.Fatalf("op %d: decoded pair differs from the one encoded", op)
	}
}
