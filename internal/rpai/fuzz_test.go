package rpai

import (
	"bytes"
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
