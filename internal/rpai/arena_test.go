package rpai

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func collectArena(t *ArenaTree) []pair {
	var out []pair
	t.Ascend(func(k, v float64) bool {
		out = append(out, pair{k, v})
		return true
	})
	return out
}

// requireBitIdentical checks that the pointer tree and the arena tree hold
// exactly the same structure: both validate, both enumerate the same entries,
// and both encode to the same bytes (which pins relative keys, colors and
// shape, not just the logical contents).
func requireBitIdentical(t *testing.T, ctx string, tr *Tree, ar *ArenaTree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: tree invariants: %v", ctx, err)
	}
	if err := ar.Validate(); err != nil {
		t.Fatalf("%s: arena invariants: %v", ctx, err)
	}
	if tr.Len() != ar.Len() || tr.Total() != ar.Total() {
		t.Fatalf("%s: Len/Total = %d/%v (tree) vs %d/%v (arena)",
			ctx, tr.Len(), tr.Total(), ar.Len(), ar.Total())
	}
	var tb, ab bytes.Buffer
	if err := tr.Encode(&tb); err != nil {
		t.Fatalf("%s: tree encode: %v", ctx, err)
	}
	if err := ar.Encode(&ab); err != nil {
		t.Fatalf("%s: arena encode: %v", ctx, err)
	}
	if !bytes.Equal(tb.Bytes(), ab.Bytes()) {
		t.Fatalf("%s: pointer and arena trees encode to different bytes (%d vs %d); structures diverged",
			ctx, tb.Len(), ab.Len())
	}
}

// TestArenaDifferential drives the pointer tree and the arena tree through an
// identical randomized operation mix and demands bit-identical structure
// throughout — the arena port must make the same balancing decisions and the
// same floating-point evaluations, not merely agree logically.
func TestArenaDifferential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, ar := New(), NewArena()
		for op := 0; op < 3000; op++ {
			switch rng.Intn(8) {
			case 0, 1:
				k, v := float64(rng.Intn(200)), float64(rng.Intn(50)+1)
				tr.Add(k, v)
				ar.Add(k, v)
			case 2:
				k, v := float64(rng.Intn(200)), float64(rng.Intn(50))
				tr.Put(k, v)
				ar.Put(k, v)
			case 3:
				k := float64(rng.Intn(200))
				if got, want := ar.Delete(k), tr.Delete(k); got != want {
					t.Fatalf("seed %d op %d: arena Delete(%v) = %v, tree says %v", seed, op, k, got, want)
				}
			case 4:
				k, d := float64(rng.Intn(250)-25), float64(rng.Intn(60)-30)
				tr.ShiftKeys(k, d)
				ar.ShiftKeys(k, d)
			case 5:
				k, d := float64(rng.Intn(250)-25), float64(rng.Intn(60)-30)
				tr.ShiftKeysInclusive(k, d)
				ar.ShiftKeysInclusive(k, d)
			case 6:
				q := float64(rng.Intn(300) - 50)
				if got, want := ar.GetSum(q), tr.GetSum(q); got != want {
					t.Fatalf("seed %d op %d: arena GetSum(%v) = %v, tree %v", seed, op, q, got, want)
				}
				if got, want := ar.GetSumLess(q), tr.GetSumLess(q); got != want {
					t.Fatalf("seed %d op %d: arena GetSumLess(%v) = %v, tree %v", seed, op, q, got, want)
				}
				if got, want := ar.SuffixSum(q), tr.SuffixSum(q); got != want {
					t.Fatalf("seed %d op %d: arena SuffixSum(%v) = %v, tree %v", seed, op, q, got, want)
				}
				if got, want := ar.Rank(q), tr.Rank(q); got != want {
					t.Fatalf("seed %d op %d: arena Rank(%v) = %v, tree %v", seed, op, q, got, want)
				}
			case 7:
				q := float64(rng.Intn(300) - 50)
				gv, gok := ar.Get(q)
				wv, wok := tr.Get(q)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d op %d: arena Get(%v) = %v,%v, tree %v,%v", seed, op, q, gv, gok, wv, wok)
				}
				gh, ghok := ar.Higher(q)
				wh, whok := tr.Higher(q)
				if gh != wh || ghok != whok {
					t.Fatalf("seed %d op %d: arena Higher(%v) = %v,%v, tree %v,%v", seed, op, q, gh, ghok, wh, whok)
				}
				gl, glok := ar.Lower(q)
				wl, wlok := tr.Lower(q)
				if gl != wl || glok != wlok {
					t.Fatalf("seed %d op %d: arena Lower(%v) = %v,%v, tree %v,%v", seed, op, q, gl, glok, wl, wlok)
				}
				if ar.Len() > 0 {
					i := rng.Intn(ar.Len())
					gk, gv, _ := ar.Kth(i)
					wk, wv, _ := tr.Kth(i)
					if gk != wk || gv != wv {
						t.Fatalf("seed %d op %d: arena Kth(%d) = %v/%v, tree %v/%v", seed, op, i, gk, gv, wk, wv)
					}
				}
			}
			if op%250 == 0 {
				requireBitIdentical(t, "periodic", tr, ar)
			}
		}
		requireBitIdentical(t, "final", tr, ar)
	}
}

// TestArenaDeleteRoot mirrors TestDeleteRoot for the arena tree: repeatedly
// delete whatever key occupies the root across the same shape table, checking
// against the Reference oracle, and additionally that every vacated slot
// lands on the free list rather than leaking.
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
			ar, ref := NewArena(), NewReference()
			for _, e := range entries {
				ar.Put(e.k, e.v)
				ref.Put(e.k, e.v)
			}
			total := ar.Len()
			for ar.Len() > 0 {
				rootKey := ar.nodes[ar.root].key // no parent frame: relative == true key
				if !ar.Delete(rootKey) {
					t.Fatalf("Delete(%v) of root returned false", rootKey)
				}
				if !ref.Delete(rootKey) {
					t.Fatalf("reference disagrees: %v absent", rootKey)
				}
				if err := ar.Validate(); err != nil {
					t.Fatalf("after root delete: %v", err)
				}
				got, want := collectArena(ar), collectRef(ref)
				if len(got) != len(want) {
					t.Fatalf("arena has %d entries, reference %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			}
			if ar.FreeSlots() != total || ar.Cap() != total {
				t.Fatalf("emptied arena: %d free slots, cap %d, want both %d", ar.FreeSlots(), ar.Cap(), total)
			}
			if _, ok := ar.Min(); ok {
				t.Fatal("Min reports a key in an emptied arena")
			}
			if ar.Delete(1) {
				t.Fatal("Delete on emptied arena returned true")
			}
		})
	}
}

// TestArenaShiftBoundary mirrors TestShiftKeysInclusiveBoundary against the
// Reference oracle, using the pointer tree's case table.
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
			ar := NewArena()
			for _, e := range base {
				ar.Put(e.k, e.v)
			}
			if tc.inclusive {
				tr.ShiftKeysInclusive(tc.k, tc.d)
				ar.ShiftKeysInclusive(tc.k, tc.d)
				ref.ShiftKeysInclusive(tc.k, tc.d)
			} else {
				tr.ShiftKeys(tc.k, tc.d)
				ar.ShiftKeys(tc.k, tc.d)
				ref.ShiftKeys(tc.k, tc.d)
			}
			requireAgree(t, "after shift", tr, ref)
			requireBitIdentical(t, "after shift", tr, ar)
		})
	}
}

// TestArenaFreeListChurn exercises heavy Delete churn: the slab must stop
// growing once it covers the working set, with every insert thereafter served
// from recycled slots.
func TestArenaFreeListChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena()
	tr := New()
	for i := 0; i < 400; i++ {
		k := float64(rng.Intn(500))
		ar.Add(k, 1)
		tr.Add(k, 1)
	}
	capAfterWarmup := ar.Cap()
	for round := 0; round < 50; round++ {
		// Delete a batch, then insert a batch of the same size: net zero
		// growth, so every insert must reuse a freed slot.
		var doomed []float64
		ar.Ascend(func(k, _ float64) bool {
			if rng.Intn(4) == 0 {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			ar.Delete(k)
			tr.Delete(k)
		}
		if got := ar.FreeSlots(); got < len(doomed) {
			t.Fatalf("round %d: deleted %d keys but only %d slots on the free list", round, len(doomed), got)
		}
		for i := 0; i < len(doomed); i++ {
			k := float64(rng.Intn(500))
			ar.Add(k, 1)
			tr.Add(k, 1)
		}
		if ar.Cap() > capAfterWarmup {
			t.Fatalf("round %d: slab grew from %d to %d despite balanced churn", round, capAfterWarmup, ar.Cap())
		}
		if err := ar.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	requireBitIdentical(t, "after churn", tr, ar)
}

// TestArenaSlabGrowth grows a tree across many append boundaries and checks
// the structure survives the reallocation of the node slab mid-insert (the
// recursive insert path must not hold node pointers across child calls).
func TestArenaSlabGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ar := NewArena()
	tr := New()
	for i := 0; i < 20000; i++ {
		k := float64(rng.Intn(1 << 20))
		v := float64(rng.Intn(100) - 50)
		ar.Add(k, v)
		tr.Add(k, v)
		if i%4000 == 3999 {
			if err := ar.Validate(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	requireBitIdentical(t, "grown", tr, ar)
	if ar.Cap() < ar.Len() {
		t.Fatalf("cap %d below len %d", ar.Cap(), ar.Len())
	}
}

// TestArenaCodecCrossRestore checks both restore directions: a pointer-tree
// snapshot decodes into an arena tree and re-encodes byte-identically, and
// vice versa. This is the compatibility contract the engine checkpoint codec
// relies on when switching index implementations between runs.
func TestArenaCodecCrossRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, ar := New(), NewArena()
	for i := 0; i < 2000; i++ {
		k, v := float64(rng.Intn(5000)), float64(rng.Intn(100)-50)
		tr.Add(k, v)
		ar.Add(k, v)
		if i%7 == 0 {
			d := float64(rng.Intn(30) - 15)
			tr.ShiftKeys(k, d)
			ar.ShiftKeys(k, d)
		}
		if i%5 == 0 {
			dk := float64(rng.Intn(5000))
			tr.Delete(dk)
			ar.Delete(dk)
		}
	}
	var ptrBytes, arnBytes bytes.Buffer
	if err := tr.Encode(&ptrBytes); err != nil {
		t.Fatal(err)
	}
	if err := ar.Encode(&arnBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ptrBytes.Bytes(), arnBytes.Bytes()) {
		t.Fatal("pointer and arena encodings differ before restore")
	}

	// Pointer snapshot -> arena tree -> identical bytes.
	fromPtr, err := DecodeArena(bytes.NewReader(ptrBytes.Bytes()))
	if err != nil {
		t.Fatalf("DecodeArena of pointer snapshot: %v", err)
	}
	var re bytes.Buffer
	if err := fromPtr.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), ptrBytes.Bytes()) {
		t.Fatal("arena re-encode of pointer snapshot is not byte-identical")
	}

	// Arena snapshot -> pointer tree -> identical bytes.
	fromArn, err := Decode(bytes.NewReader(arnBytes.Bytes()))
	if err != nil {
		t.Fatalf("Decode of arena snapshot: %v", err)
	}
	re.Reset()
	if err := fromArn.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), arnBytes.Bytes()) {
		t.Fatal("pointer re-encode of arena snapshot is not byte-identical")
	}

	// The restored arena tree must remain fully operational.
	fromPtr.ShiftKeys(100, -7)
	fromPtr.Add(42, 1)
	fromPtr.Delete(17)
	if err := fromPtr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeArenaRejectsCorruption mirrors TestDecodeRejectsCorruption for
// the arena decoder.
func TestDecodeArenaRejectsCorruption(t *testing.T) {
	ar := NewArena()
	for i := 0; i < 50; i++ {
		ar.Put(float64(i), 1)
	}
	var buf bytes.Buffer
	if err := ar.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := DecodeArena(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := DecodeArena(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	truncated := append([]byte(nil), good[:len(good)/2]...)
	if _, err := DecodeArena(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	corrupt := append([]byte(nil), good...)
	corrupt[8] ^= 0xff
	if _, err := DecodeArena(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted count header accepted")
	}
	corrupt = append([]byte(nil), good...)
	corrupt[12] ^= flagLeft | flagRight
	if _, err := DecodeArena(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted flag byte accepted")
	}
}

// TestArenaDecodeEmpty round-trips the empty tree through both codecs.
func TestArenaDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewArena().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArena(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
	got.Add(1, 1) // must be usable
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaKeyChecks pins the finite-key contract shared with the pointer
// tree.
func TestArenaKeyChecks(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%v) did not panic", bad)
				}
			}()
			NewArena().Add(bad, 1)
		}()
	}
}

// TestDecodeArenaPairRejectsMismatchedLanes pins the zip contract: two
// streams restore into one two-lane tree only when they describe the same
// tree — a different node count, shape or key, or a truncated lane, fails.
func TestDecodeArenaPairRejectsMismatchedLanes(t *testing.T) {
	encode := func(keys ...float64) []byte {
		tr := NewArena()
		for i, k := range keys {
			tr.Add(k, float64(i)+0.5)
		}
		var b bytes.Buffer
		if err := tr.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	base := encode(1, 2, 3, 4, 5, 6)
	if p, err := DecodeArenaPair(bytes.NewReader(base), bytes.NewReader(base)); err != nil || p.Len() != 6 {
		t.Fatalf("identical lanes: %v", err)
	}
	for name, other := range map[string][]byte{
		"count":     encode(1, 2, 3, 4, 5),
		"shape":     encode(6, 5, 4, 3, 2, 1),
		"key":       encode(1, 2, 3, 4, 5, 8),
		"truncated": base[:len(base)-9],
		"empty":     encode(),
	} {
		if _, err := DecodeArenaPair(bytes.NewReader(base), bytes.NewReader(other)); err == nil {
			t.Errorf("%s: mismatched lane accepted", name)
		}
		if _, err := DecodeArenaPair(bytes.NewReader(other), bytes.NewReader(base)); err == nil {
			t.Errorf("%s (as lane 0): mismatched lane accepted", name)
		}
	}
}
