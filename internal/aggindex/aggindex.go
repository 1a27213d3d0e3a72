// Package aggindex defines the aggregate-index abstraction of the ablations:
// an ordered multiset of (aggregate key -> aggregate value) entries
// supporting prefix sums and key-range shifting. The hand-written executors
// of package queries and the benchmarks use it to swap the index structure
// (the ablation axis of the paper's section 3, Table 1 and Figures 7-9); the
// engine does not — it builds the level tree (rpai.LevelTree, an RPAI whose
// keys are held implicitly as weight-lane prefix sums) and the PAI map
// directly, so the serving build does not link this package.
//
// Two implementations, the two sides of the paper's section 3 comparison:
//
//   - the binary RPAI tree (package rpai): O(log n) GetSum and ShiftKeys, in
//     a flat int32-indexed slab with a free list — no pointer chasing, no
//     steady-state allocation,
//   - the PAI map (package paimap): O(1) point ops, O(n) GetSum/ShiftKeys.
package aggindex

import (
	"rpai/internal/paimap"
	"rpai/internal/rpai"
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
	KindArena Kind = "arena" // balanced binary RPAI tree in a flat slab
	KindPAI   Kind = "pai"   // hash-based PAI map
)

// New returns an empty index of the given kind. It panics on an unknown
// kind, which is a programming error.
func New(kind Kind) Index {
	switch kind {
	case KindArena:
		return rpai.New()
	case KindPAI:
		return paimap.New()
	}
	panic("aggindex: unknown kind " + string(kind))
}

// Kinds lists all implementations, for conformance tests and ablations.
func Kinds() []Kind {
	return []Kind{KindArena, KindPAI}
}
