package rpai

import (
	"math"
	"math/rand"
	"testing"
)

// collectState snapshots a tree's entries in key order for bitwise
// comparison.
func collectState(t interface {
	Ascend(fn func(k, v float64) bool)
}) []Entry {
	var out []Entry
	t.Ascend(func(k, v float64) bool {
		out = append(out, Entry{k, v})
		return true
	})
	return out
}

func requireSameState(t *testing.T, label string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Key) != math.Float64bits(want[i].Key) ||
			math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: entry %d = (%v, %v), want (%v, %v)",
				label, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestAddManyMatchesSequential is the bit-identity contract of the batched
// path: AddMany must leave exactly the state a sequential Add loop leaves, across batch shapes that exercise every internal branch —
// same-key runs (tip fast path), shared prefixes (deferred unwind + partial
// flush), fresh keys on clean and dirty caches (inline attach vs
// flush-then-insert), and batches over recycled free-list slots.
func TestAddManyMatchesSequential(t *testing.T) {
	shapes := []struct {
		name  string
		batch func(rng *rand.Rand, n int) []Entry
	}{
		{"uniform", func(rng *rand.Rand, n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{float64(rng.Intn(n * 2)), float64(rng.Intn(9) - 4)}
			}
			return out
		}},
		{"same-key-runs", func(rng *rand.Rand, n int) []Entry {
			out := make([]Entry, 0, n)
			for len(out) < n {
				k := float64(rng.Intn(64))
				run := 1 + rng.Intn(6)
				for j := 0; j < run && len(out) < n; j++ {
					out = append(out, Entry{k, float64(rng.Intn(5) + 1)})
				}
			}
			return out
		}},
		{"sorted", func(rng *rand.Rand, n int) []Entry {
			out := make([]Entry, n)
			k := -float64(n)
			for i := range out {
				k += float64(rng.Intn(3)) // repeats and gaps
				out[i] = Entry{k, float64(rng.Intn(7) - 3)}
			}
			return out
		}},
		{"mostly-new", func(rng *rand.Rand, n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{rng.Float64() * 1e6, 1}
			}
			return out
		}},
		{"alternating", func(rng *rand.Rand, n int) []Entry {
			// Existing key, then a fresh key, to force structural inserts on
			// dirty caches.
			out := make([]Entry, n)
			for i := range out {
				if i%2 == 0 {
					out[i] = Entry{float64(rng.Intn(32)), 2}
				} else {
					out[i] = Entry{1e3 + rng.Float64()*1e3, 1}
				}
			}
			return out
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				batched, seq := New(), New()
				// Random warm state, including some deletes so the batch
				// runs over free-listed slots.
				for i := 0; i < 300; i++ {
					k := float64(rng.Intn(128))
					batched.Add(k, 1)
					seq.Add(k, 1)
				}
				for i := 0; i < 40; i++ {
					k := float64(rng.Intn(128))
					batched.Delete(k)
					seq.Delete(k)
				}
				for round := 0; round < 6; round++ {
					batch := shape.batch(rng, 1+rng.Intn(120))
					batched.AddMany(batch)
					for _, e := range batch {
						seq.Add(e.Key, e.Value)
					}
					if err := batched.Validate(); err != nil {
						t.Fatalf("seed %d round %d: %v", seed, round, err)
					}
					requireSameState(t, "AddMany vs sequential", collectState(batched), collectState(seq))
				}
			}
		})
	}
}

// TestAddManyEdgeCases covers the batch boundaries the randomized shapes can
// miss: empty batches, batches into an empty tree, and a batch that is one
// long same-key run.
func TestAddManyEdgeCases(t *testing.T) {
	ar := New()
	ar.AddMany(nil)
	ar.AddMany([]Entry{})
	if ar.Len() != 0 {
		t.Fatalf("empty AddMany mutated an empty tree: %d entries", ar.Len())
	}
	ar.AddMany([]Entry{{5, 1}})
	if v, ok := ar.Get(5); !ok || v != 1 {
		t.Fatalf("single-entry AddMany into empty tree: got (%v, %v)", v, ok)
	}
	run := make([]Entry, 1000)
	for i := range run {
		run[i] = Entry{5, 1}
	}
	ar.AddMany(run)
	if v, _ := ar.Get(5); v != 1001 {
		t.Fatalf("same-key run: value %v, want 1001", v)
	}
	if err := ar.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mixed signed zeros descend identically; the fast path must treat them
	// as the same key, exactly like sequential Add does.
	zeros := New()
	zeros.AddMany([]Entry{{math.Copysign(0, 1), 1}, {math.Copysign(0, -1), 2}})
	if v, _ := zeros.Get(0); v != 3 {
		t.Fatalf("signed-zero batch: value %v, want 3", v)
	}
	if zeros.Len() != 1 {
		t.Fatalf("signed-zero batch: %d entries, want 1", zeros.Len())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("AddMany accepted a NaN key")
		}
	}()
	ar.AddMany([]Entry{{math.NaN(), 1}})
}
