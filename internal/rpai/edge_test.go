package rpai

import (
	"testing"
)

// This file pins two structural edge cases the randomized suites reach only
// by luck: deleting the node currently at the tree's root (the one delete
// case with no parent frame to re-express keys in) and ShiftKeysInclusive
// whose boundary sits exactly on the minimum or maximum key. Both run
// differentially against the Reference oracle with full invariant checks
// after every mutation.

type pair struct{ k, v float64 }

func collectTree(t *Tree) []pair {
	var out []pair
	t.Ascend(func(k, v float64) bool {
		out = append(out, pair{k, v})
		return true
	})
	return out
}

func collectRef(r *Reference) []pair {
	var out []pair
	r.Ascend(func(k, v float64) bool {
		out = append(out, pair{k, v})
		return true
	})
	return out
}

func buildBoth(t *testing.T, entries []pair) (*Tree, *Reference) {
	t.Helper()
	tr, ref := New(), NewReference()
	for _, e := range entries {
		tr.Put(e.k, e.v)
		ref.Put(e.k, e.v)
	}
	return tr, ref
}

func requireAgree(t *testing.T, ctx string, tr *Tree, ref *Reference) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: tree invariants: %v", ctx, err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatalf("%s: reference invariants: %v", ctx, err)
	}
	got, want := collectTree(tr), collectRef(ref)
	if len(got) != len(want) {
		t.Fatalf("%s: tree has %d entries, reference %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
	if tr.Len() != ref.Len() || tr.Total() != ref.Total() {
		t.Fatalf("%s: Len/Total = %d/%v, want %d/%v", ctx, tr.Len(), tr.Total(), ref.Len(), ref.Total())
	}
}

// TestDeleteRoot repeatedly deletes whatever key currently occupies the root
// node. Because the root has no parent, its relative key IS its true key, so
// this drives every delete through the root-replacement path — successor
// promotion, child re-keying, and the single-node -> empty transition —
// across a range of tree shapes.
func TestDeleteRoot(t *testing.T) {
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
			tr, ref := buildBoth(t, entries)
			requireAgree(t, "built", tr, ref)
			for tr.Len() > 0 {
				rootKey := tr.nodes[tr.root].key // no parent frame: relative == true key
				if !tr.Contains(rootKey) {
					t.Fatalf("root key %v not reported present", rootKey)
				}
				if !tr.Delete(rootKey) {
					t.Fatalf("Delete(%v) of root returned false", rootKey)
				}
				if !ref.Delete(rootKey) {
					t.Fatalf("reference disagrees: %v absent", rootKey)
				}
				if tr.Contains(rootKey) {
					t.Fatalf("key %v still present after root delete", rootKey)
				}
				requireAgree(t, "after root delete", tr, ref)
			}
			if _, ok := tr.Min(); ok {
				t.Fatal("Min reports a key in an emptied tree")
			}
			if _, ok := tr.Max(); ok {
				t.Fatal("Max reports a key in an emptied tree")
			}
			if tr.Delete(1) {
				t.Fatal("Delete on emptied tree returned true")
			}
		})
	}
}

// TestShiftKeysInclusiveBoundary drives ShiftKeysInclusive with boundaries
// on, below, and above the extreme keys, in both directions, including a
// negative shift that collides shifted keys with unshifted ones (the
// fixTree merge path). The exclusive variant runs alongside to pin the
// difference at an exact-key boundary.
func TestShiftKeysInclusiveBoundary(t *testing.T) {
	base := []pair{{1, 10}, {2, 20}, {3, 30}, {5, 50}, {8, 80}, {13, 130}}
	cases := []struct {
		name      string
		k, d      float64
		inclusive bool
	}{
		{"min-up-inclusive", 1, 100, true},       // every key qualifies
		{"min-down-inclusive", 1, -100, true},    // every key shifts left
		{"max-up-inclusive", 13, 7, true},        // only the max qualifies
		{"max-down-cross", 13, -6, true},         // max lands between 5 and 8
		{"max-down-collide", 13, -5, true},       // max lands ON 8: values merge
		{"min-down-exclusive", 1, -100, false},   // min itself must not move
		{"max-up-exclusive", 13, 7, false},       // nothing qualifies
		{"below-min", 0.5, 9, true},              // boundary below min: all shift
		{"above-max", 14, 9, true},               // boundary above max: none shift
		{"interior-collide", 3, -1, true},        // 3 lands on 2, 5 on 4, 8 on 7
		{"fractional-boundary", 2.5, 0.25, true}, // non-integer frame arithmetic
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
		})
	}

	t.Run("single-node-inclusive", func(t *testing.T) {
		tr, ref := buildBoth(t, []pair{{4, 7}})
		tr.ShiftKeysInclusive(4, -3)
		ref.ShiftKeysInclusive(4, -3)
		requireAgree(t, "single shifted", tr, ref)
		if _, ok := tr.Get(1); !ok {
			t.Fatal("single key did not move from 4 to 1")
		}
	})

	t.Run("empty", func(t *testing.T) {
		tr := New()
		tr.ShiftKeysInclusive(0, 5) // must not panic
		if tr.Len() != 0 {
			t.Fatal("shift on empty tree created entries")
		}
	})

	t.Run("zero-delta", func(t *testing.T) {
		tr, ref := buildBoth(t, base)
		tr.ShiftKeysInclusive(5, 0)
		ref.ShiftKeysInclusive(5, 0)
		requireAgree(t, "zero delta", tr, ref)
	})

	// Repeated inclusive shifts at the running minimum: the whole tree keeps
	// sliding, exercising root re-keying under accumulated offsets.
	t.Run("sliding-min", func(t *testing.T) {
		tr, ref := buildBoth(t, base)
		for i := 0; i < 8; i++ {
			min, ok := tr.Min()
			rmin, rok := ref.Min()
			if !ok || !rok || min != rmin {
				t.Fatalf("Min() = %v/%v vs reference %v/%v", min, ok, rmin, rok)
			}
			tr.ShiftKeysInclusive(min, 2.5)
			ref.ShiftKeysInclusive(min, 2.5)
			requireAgree(t, "slide", tr, ref)
		}
	})
}
