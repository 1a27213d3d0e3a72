// Package aggindex defines the aggregate-index abstraction of the ablations:
// an ordered multiset of (aggregate key -> aggregate value) entries
// supporting prefix sums and key-range shifting. The hand-written executors
// of package queries and the benchmarks use it to swap the index structure
// (the ablation axis of the paper's section 3, Table 1 and Figures 7-9); the
// engine does not — it builds the level tree (rpai.LevelTree, an RPAI whose
// keys are held implicitly as weight-lane prefix sums) and the PAI map
// directly, so the serving build links none of the others.
//
// Five implementations:
//
//   - the binary RPAI tree (package rpai): O(log n) GetSum and ShiftKeys, in
//     a flat int32-indexed slab with a free list — no pointer chasing, no
//     steady-state allocation,
//   - the B-tree RPAI (package rpaibtree): same bounds, wider nodes,
//   - the PAI map (package paimap): O(1) point ops, O(n) GetSum/ShiftKeys,
//   - a sorted slice (this package): O(log n) search but O(n) updates,
//     the "obvious" array baseline,
//   - a Fenwick tree (package fenwick): O(log n) GetSum but O(n) key
//     insertion and shifting — the related-work baseline of section 6.
package aggindex

import (
	"sort"

	"rpai/internal/fenwick"
	"rpai/internal/paimap"
	"rpai/internal/rpai"
	"rpai/internal/rpaibtree"
)

// Index is the aggregate-index contract of the ablation executors.
// Keys are aggregate values (e.g. running volume sums); values are the
// aggregates the query ultimately reports (e.g. sums of price*volume).
type Index interface {
	// Len reports the number of distinct keys.
	Len() int
	// Total returns the sum of all values.
	Total() float64
	// Get returns the value stored under k and whether k is present.
	Get(k float64) (float64, bool)
	// Put stores v under k, replacing any existing value.
	Put(k, v float64)
	// Add adds dv to the value under k, inserting if absent.
	Add(k, dv float64)
	// Delete removes k, reporting whether it was present.
	Delete(k float64) bool
	// GetSum returns the sum of values over entries with key <= k.
	GetSum(k float64) float64
	// GetSumLess returns the sum of values over entries with key < k.
	GetSumLess(k float64) float64
	// SuffixSum returns the sum of values over entries with key >= k.
	SuffixSum(k float64) float64
	// SuffixSumGreater returns the sum of values over entries with key > k.
	SuffixSumGreater(k float64) float64
	// ShiftKeys shifts every key strictly greater than k by d, merging
	// values when shifted keys collide.
	ShiftKeys(k, d float64)
	// ShiftKeysInclusive shifts every key greater than or equal to k by d.
	ShiftKeysInclusive(k, d float64)
	// Ascend visits entries in increasing key order until fn returns false.
	Ascend(fn func(k, v float64) bool)
}

// Kind names an index implementation; used by benchmarks and executors to
// select the structure under test.
type Kind string

const (
	KindArena   Kind = "arena"   // balanced binary RPAI tree in a flat slab
	KindBTree   Kind = "btree"   // B-tree RPAI (paper section 3.2.5's closing note)
	KindPAI     Kind = "pai"     // hash-based PAI map
	KindSorted  Kind = "sorted"  // sorted-slice baseline
	KindFenwick Kind = "fenwick" // Binary Indexed Tree (related-work baseline, section 6)
)

// New returns an empty index of the given kind. It panics on an unknown
// kind, which is a programming error.
func New(kind Kind) Index {
	switch kind {
	case KindArena:
		return rpai.New()
	case KindBTree:
		return rpaibtree.New()
	case KindPAI:
		return paimap.New()
	case KindSorted:
		return NewSorted()
	case KindFenwick:
		return fenwick.New()
	}
	panic("aggindex: unknown kind " + string(kind))
}

// Kinds lists all implementations, for conformance tests and ablations.
func Kinds() []Kind {
	return []Kind{KindArena, KindBTree, KindPAI, KindSorted, KindFenwick}
}

// Sorted is the sorted-slice aggregate index: keys kept in ascending order
// with parallel values. Lookups are binary searches; inserts, deletes and
// shifts move O(n) elements.
type Sorted struct {
	keys []float64
	vals []float64
}

// NewSorted returns an empty sorted-slice index.
func NewSorted() *Sorted { return &Sorted{} }

// Len reports the number of distinct keys.
func (s *Sorted) Len() int { return len(s.keys) }

// Total returns the sum of all values.
func (s *Sorted) Total() float64 {
	var t float64
	for _, v := range s.vals {
		t += v
	}
	return t
}

func (s *Sorted) search(k float64) (int, bool) {
	i := sort.SearchFloat64s(s.keys, k)
	return i, i < len(s.keys) && s.keys[i] == k
}

// Get returns the value stored under k and whether k is present.
func (s *Sorted) Get(k float64) (float64, bool) {
	if i, ok := s.search(k); ok {
		return s.vals[i], true
	}
	return 0, false
}

// Put stores v under k, replacing any existing value.
func (s *Sorted) Put(k, v float64) {
	i, ok := s.search(k)
	if ok {
		s.vals[i] = v
		return
	}
	s.keys = append(s.keys, 0)
	s.vals = append(s.vals, 0)
	copy(s.keys[i+1:], s.keys[i:])
	copy(s.vals[i+1:], s.vals[i:])
	s.keys[i], s.vals[i] = k, v
}

// Add adds dv to the value under k, inserting if absent.
func (s *Sorted) Add(k, dv float64) {
	if i, ok := s.search(k); ok {
		s.vals[i] += dv
		return
	}
	s.Put(k, dv)
}

// Delete removes k, reporting whether it was present.
func (s *Sorted) Delete(k float64) bool {
	i, ok := s.search(k)
	if !ok {
		return false
	}
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
	s.vals = append(s.vals[:i], s.vals[i+1:]...)
	return true
}

// GetSum returns the sum of values over entries with key <= k.
func (s *Sorted) GetSum(k float64) float64 {
	var t float64
	for i := 0; i < len(s.keys) && s.keys[i] <= k; i++ {
		t += s.vals[i]
	}
	return t
}

// GetSumLess returns the sum of values over entries with key < k.
func (s *Sorted) GetSumLess(k float64) float64 {
	var t float64
	for i := 0; i < len(s.keys) && s.keys[i] < k; i++ {
		t += s.vals[i]
	}
	return t
}

// SuffixSum returns the sum of values over entries with key >= k.
func (s *Sorted) SuffixSum(k float64) float64 { return s.Total() - s.GetSumLess(k) }

// SuffixSumGreater returns the sum of values over entries with key > k.
func (s *Sorted) SuffixSumGreater(k float64) float64 { return s.Total() - s.GetSum(k) }

// ShiftKeys shifts every key strictly greater than k by d.
func (s *Sorted) ShiftKeys(k, d float64) {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] > k })
	s.shiftFrom(i, d)
}

// ShiftKeysInclusive shifts every key greater than or equal to k by d.
func (s *Sorted) ShiftKeysInclusive(k, d float64) {
	i := sort.SearchFloat64s(s.keys, k)
	s.shiftFrom(i, d)
}

// shiftFrom shifts keys[i:] by d. For d < 0 the shifted block can overlap
// the unshifted prefix; the two sorted runs are then merged, summing values
// on key collisions. O(n) either way.
func (s *Sorted) shiftFrom(i int, d float64) {
	if d == 0 || i >= len(s.keys) {
		return
	}
	for j := i; j < len(s.keys); j++ {
		s.keys[j] += d
	}
	if d > 0 || i == 0 {
		return
	}
	pk, pv := s.keys[:i], s.vals[:i]
	bk, bv := s.keys[i:], s.vals[i:]
	mk := make([]float64, 0, len(s.keys))
	mv := make([]float64, 0, len(s.vals))
	a, b := 0, 0
	for a < len(pk) || b < len(bk) {
		switch {
		case b >= len(bk) || (a < len(pk) && pk[a] < bk[b]):
			mk = append(mk, pk[a])
			mv = append(mv, pv[a])
			a++
		case a >= len(pk) || bk[b] < pk[a]:
			mk = append(mk, bk[b])
			mv = append(mv, bv[b])
			b++
		default: // equal keys: merge the aggregates
			mk = append(mk, pk[a])
			mv = append(mv, pv[a]+bv[b])
			a++
			b++
		}
	}
	s.keys, s.vals = mk, mv
}

// Ascend visits entries in increasing key order until fn returns false.
func (s *Sorted) Ascend(fn func(k, v float64) bool) {
	for i := range s.keys {
		if !fn(s.keys[i], s.vals[i]) {
			return
		}
	}
}
