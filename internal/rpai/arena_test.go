package rpai

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Tests of the slab the tree lives in: vacated slots go onto the free list
// and are reused before the slab grows, the slab survives reallocation
// mid-insert, and a snapshot restores into a fresh slab only when its header
// tells the truth.

// TestArenaDeleteRoot is the slab side of TestDeleteRoot: deleting whatever
// key occupies the root, across the same shape table, lands every vacated
// slot on the free list rather than leaking it, and an emptied tree is
// usable again from its recycled slots.
func TestArenaDeleteRoot(t *testing.T) {
	shapes := map[string][]pair{
		"single":         {{5, 2}},
		"ascending":      {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}},
		"descending":     {{7, 1}, {6, 2}, {5, 3}, {4, 4}, {3, 5}, {2, 6}, {1, 7}},
		"zigzag":         {{4, 1}, {1, 2}, {6, 3}, {2, 4}, {5, 5}, {3, 6}, {7, 7}},
		"negative-keys":  {{-3, 1}, {-1, 2}, {0, 3}, {2, 4}, {-7, 5}, {4, 6}},
		"wide-magnitude": {{1e9, 1}, {-1e9, 2}, {0.5, 3}, {1e-9, 4}, {-2.25, 5}},
	}
	for name, entries := range shapes {
		t.Run(name, func(t *testing.T) {
			tr := New()
			for _, e := range entries {
				tr.Put(e.k, e.v)
			}
			total := tr.Len()
			for tr.Len() > 0 {
				if !tr.Delete(tr.nodes[tr.root].key) {
					t.Fatal("Delete of the root key returned false")
				}
				if got, want := tr.FreeSlots(), total-tr.Len(); got != want {
					t.Fatalf("%d slots on the free list after %d deletes", got, want)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("after root delete: %v", err)
				}
			}
			if tr.Cap() != total {
				t.Fatalf("emptied tree: cap %d, want %d", tr.Cap(), total)
			}
			for _, e := range entries {
				tr.Put(e.k, e.v)
			}
			if tr.Cap() != total || tr.FreeSlots() != 0 {
				t.Fatalf("refilled tree: cap %d with %d free, want %d with 0", tr.Cap(), tr.FreeSlots(), total)
			}
		})
	}
}

// TestArenaShiftBoundary runs TestShiftKeysInclusiveBoundary's case table
// for the slab: a negative shift re-inserts the keys it extracts into the
// slots the extraction freed, so no shift grows the slab, and each key merged
// by a collision leaves exactly one slot on the free list.
func TestArenaShiftBoundary(t *testing.T) {
	base := []pair{{1, 10}, {2, 20}, {3, 30}, {5, 50}, {8, 80}, {13, 130}}
	cases := []struct {
		name      string
		k, d      float64
		inclusive bool
	}{
		{"min-up-inclusive", 1, 100, true},
		{"min-down-inclusive", 1, -100, true},
		{"max-up-inclusive", 13, 7, true},
		{"max-down-cross", 13, -6, true},
		{"max-down-collide", 13, -5, true},
		{"min-down-exclusive", 1, -100, false},
		{"max-up-exclusive", 13, 7, false},
		{"below-min", 0.5, 9, true},
		{"above-max", 14, 9, true},
		{"interior-collide", 3, -1, true},
		{"fractional-boundary", 2.5, 0.25, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, ref := buildBoth(t, base)
			if tc.inclusive {
				tr.ShiftKeysInclusive(tc.k, tc.d)
				ref.ShiftKeysInclusive(tc.k, tc.d)
			} else {
				tr.ShiftKeys(tc.k, tc.d)
				ref.ShiftKeys(tc.k, tc.d)
			}
			requireAgree(t, "after shift", tr, ref)
			if tr.Cap() != len(base) || tr.FreeSlots() != len(base)-tr.Len() {
				t.Fatalf("slab after shift: cap %d with %d free, want %d with %d",
					tr.Cap(), tr.FreeSlots(), len(base), len(base)-tr.Len())
			}
		})
	}
}

// TestArenaFreeListChurn exercises heavy Delete churn: the slab must stop
// growing once it covers the working set, with every insert thereafter served
// from recycled slots.
func TestArenaFreeListChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	m := map[float64]float64{}
	for i := 0; i < 400; i++ {
		k := float64(rng.Intn(500))
		tr.Add(k, 1)
		m[k]++
	}
	capAfterWarmup := tr.Cap()
	for round := 0; round < 50; round++ {
		// Delete a batch, then insert a batch of the same size: net zero
		// growth, so every insert must reuse a freed slot.
		var doomed []float64
		tr.Ascend(func(k, _ float64) bool {
			if rng.Intn(4) == 0 {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			tr.Delete(k)
			delete(m, k)
		}
		if got := tr.FreeSlots(); got < len(doomed) {
			t.Fatalf("round %d: deleted %d keys but only %d slots on the free list", round, len(doomed), got)
		}
		for i := 0; i < len(doomed); i++ {
			k := float64(rng.Intn(500))
			tr.Add(k, 1)
			m[k]++
		}
		if tr.Cap() > capAfterWarmup {
			t.Fatalf("round %d: slab grew from %d to %d despite balanced churn", round, capAfterWarmup, tr.Cap())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	requireModel(t, "after churn", tr, m)
}

// requireModel checks tr against a map of its expected entries.
func requireModel(t *testing.T, ctx string, tr *Tree, m map[float64]float64) {
	t.Helper()
	if tr.Len() != len(m) {
		t.Fatalf("%s: %d keys, model %d", ctx, tr.Len(), len(m))
	}
	for k, want := range m {
		if got, ok := tr.Get(k); !ok || got != want {
			t.Fatalf("%s: Get(%v) = %v,%v, model %v", ctx, k, got, ok, want)
		}
	}
}

// TestArenaSlabGrowth grows a tree across many append boundaries and checks
// the structure survives the reallocation of the node slab mid-insert (the
// recursive insert path must not hold node pointers across child calls).
func TestArenaSlabGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New()
	m := map[float64]float64{}
	for i := 0; i < 20000; i++ {
		k := float64(rng.Intn(1 << 20))
		v := float64(rng.Intn(100) - 50)
		tr.Add(k, v)
		m[k] += v
		if i%4000 == 3999 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	requireModel(t, "grown", tr, m)
	if tr.Cap() != tr.Len() {
		t.Fatalf("cap %d, len %d: an insert-only slab holds no free slots", tr.Cap(), tr.Len())
	}
}

// TestDecodeArenaRejectsCorruption holds Decode to the header's node count,
// which sizes the restored slab and so must not be trusted: a count past the
// stream's end, short of it, or near 2^32 with no nodes behind it (which once
// preallocated the whole slab and killed the process) is an error.
func TestDecodeArenaRejectsCorruption(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Put(float64(i), 1)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	withCount := func(b []byte, n uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[8:], n)
		return b
	}
	for name, bad := range map[string][]byte{
		"count-over":  withCount(buf.Bytes(), 51),
		"count-under": withCount(buf.Bytes(), 49),
		"count-max":   withCount(buf.Bytes()[:12], math.MaxUint32),
	} {
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: stream accepted", name)
		}
	}
}

// TestArenaDecodeEmpty restores the empty tree and checks the fresh slab is
// usable: an insert takes its first slot and a delete frees it.
func TestArenaDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got.Add(1, 1)
	got.Delete(1)
	if got.Len() != 0 || got.Cap() != 1 || got.FreeSlots() != 1 {
		t.Fatalf("len %d, cap %d, free %d; want 0, 1, 1", got.Len(), got.Cap(), got.FreeSlots())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaKeyChecks pins the finite-key contract on the entry points
// TestNonFiniteKeysPanic leaves out: an insert below the root and an
// inclusive shift.
func TestArenaKeyChecks(t *testing.T) {
	for name, f := range map[string]func(*Tree){
		"Add":                func(tr *Tree) { tr.Add(math.Inf(-1), 1) },
		"Put":                func(tr *Tree) { tr.Put(math.NaN(), 1) },
		"ShiftKeysInclusive": func(tr *Tree) { tr.ShiftKeysInclusive(0, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-finite key or offset", name)
				}
			}()
			tr := New()
			tr.Put(1, 1)
			f(tr)
		}()
	}
}

// TestDecodeParentLevelsRejectsMismatchedLanes pins the zip contract of the
// parent-format conversion: two lane streams restore only when they describe
// the same tree — a different node count, shape or key, or a truncated lane,
// fails — and only beside a weight map of as many levels.
func TestDecodeParentLevelsRejectsMismatchedLanes(t *testing.T) {
	encode := func(keys ...float64) []byte {
		tr := New()
		for i, k := range keys {
			tr.Add(k, float64(i)+0.5)
		}
		var b bytes.Buffer
		if err := tr.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cols, weights := []float64{10, 20, 30, 40, 50, 60}, []float64{1, 1, 1, 1, 1, 1}
	base := encode(1, 2, 3, 4, 5, 6)
	if lt, err := DecodeParentLevels(bytes.NewReader(base), bytes.NewReader(base), cols, weights); err != nil || lt.Len() != 6 {
		t.Fatalf("identical lanes: %v", err)
	}
	if _, err := DecodeParentLevels(bytes.NewReader(base), bytes.NewReader(base), cols[1:], weights[1:]); err == nil {
		t.Error("a weight map one level short accepted")
	}
	for name, other := range map[string][]byte{
		"count":     encode(1, 2, 3, 4, 5),
		"shape":     encode(6, 5, 4, 3, 2, 1),
		"key":       encode(1, 2, 3, 4, 5, 8),
		"truncated": base[:len(base)-9],
		"empty":     encode(),
	} {
		if _, err := DecodeParentLevels(bytes.NewReader(base), bytes.NewReader(other), cols, weights); err == nil {
			t.Errorf("%s: mismatched lane accepted", name)
		}
		if _, err := DecodeParentLevels(bytes.NewReader(other), bytes.NewReader(base), cols, weights); err == nil {
			t.Errorf("%s (as lane 0): mismatched lane accepted", name)
		}
	}
}
