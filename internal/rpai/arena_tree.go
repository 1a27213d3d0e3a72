package rpai

import (
	"io"
	"unsafe"
)

// ArenaTree is the one-lane arena RPAI: the same map from keys to float64
// values as Tree, and bit-identical to it in structure, sums and snapshot
// bytes. See arena for the representation; Len, Contains, Delete, Min, Max,
// ShiftKeys, ShiftKeysInclusive, Rank, Higher, Lower, Keys and Validate are
// promoted from it.
//
// The zero value is not usable; call NewArena.
type ArenaTree struct {
	arena[[1]float64]
}

// NewArena returns an empty arena-backed RPAI tree.
func NewArena() *ArenaTree { return &ArenaTree{newArena[[1]float64]()} }

// Total returns the sum of all values in the tree, i.e. GetSum(+inf).
func (t *ArenaTree) Total() float64 { return t.total()[0] }

// Get returns the value stored under true key k and whether k is present.
func (t *ArenaTree) Get(k float64) (float64, bool) {
	v, ok := t.get(k)
	return v[0], ok
}

// Put stores v under key k, replacing any existing value.
func (t *ArenaTree) Put(k, v float64) { t.insert(k, [1]float64{v}, true) }

// Add adds dv to the value stored under k, inserting k with value dv if
// absent. Zero-valued entries remain present; use Delete to drop a key.
func (t *ArenaTree) Add(k, dv float64) { t.insert(k, [1]float64{dv}, false) }

// GetSum returns the sum of values over all entries with key <= k
// (paper section 3.1, Figure 3).
func (t *ArenaTree) GetSum(k float64) float64 { return t.prefix(k, false)[0] }

// GetSumLess returns the sum of values over all entries with key < k.
func (t *ArenaTree) GetSumLess(k float64) float64 { return t.prefix(k, true)[0] }

// SuffixSum returns the sum of values over all entries with key >= k.
func (t *ArenaTree) SuffixSum(k float64) float64 { return t.Total() - t.GetSumLess(k) }

// SuffixSumGreater returns the sum of values over all entries with key > k.
func (t *ArenaTree) SuffixSumGreater(k float64) float64 { return t.Total() - t.GetSum(k) }

// PrefixSums answers many GetSum/GetSumLess probes in one shared descent,
// each bit-identical to its standalone call (see Tree.PrefixSums). keys must
// be sorted ascending and is clobbered; dst must have the same length.
func (t *ArenaTree) PrefixSums(keys, dst []float64, inclusive bool) {
	t.prefixSums(0, keys, dst, inclusive)
}

// AddMany applies Add(e.Key, e.Value) for each entry in order. The resulting
// tree state is bit-identical to the sequential Adds; see the pointer tree's
// AddMany and the batch fuzzers for the differential contract.
func (t *ArenaTree) AddMany(entries []Entry) {
	// Entry and the one-lane entryOf are both (float64, float64); the sizes
	// are asserted below.
	t.addMany(unsafe.Slice((*entryOf[[1]float64])(unsafe.Pointer(unsafe.SliceData(entries))), len(entries)))
}

var (
	_ [unsafe.Sizeof(Entry{}) - unsafe.Sizeof(entryOf[[1]float64]{})]byte
	_ [unsafe.Sizeof(entryOf[[1]float64]{}) - unsafe.Sizeof(Entry{})]byte
)

// Ascend calls fn for each entry in increasing key order until fn returns
// false.
func (t *ArenaTree) Ascend(fn func(k, v float64) bool) {
	t.ascend(t.root, 0, func(k float64, v [1]float64) bool { return fn(k, v[0]) })
}

// Kth returns the i-th smallest key (0-based) and its value. ok is false
// when i is out of range. O(log n) via the size augmentation.
func (t *ArenaTree) Kth(i int) (key, value float64, ok bool) {
	key, v, ok := t.kth(i)
	return key, v[0], ok
}

// Encode writes the same structural snapshot stream as Tree.Encode, so
// Decode/DecodeArena restore across implementations freely.
func (t *ArenaTree) Encode(w io.Writer) error { return t.encode(w) }

// DecodeArena reads a snapshot written by Tree.Encode or ArenaTree.Encode and
// restores it into an arena tree, recomputing the augmented fields and
// validating the result.
func DecodeArena(r io.Reader) (*ArenaTree, error) {
	t := new(ArenaTree)
	if err := t.decode(r); err != nil {
		return nil, err
	}
	return t, nil
}
