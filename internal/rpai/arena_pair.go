package rpai

import "io"

// ArenaPair is the two-lane arena RPAI: one key set carrying two values per
// key, for executors that maintain two aggregates under identical keys (the
// engine's count and term indexes — same shifts, same Add key, deleted
// together). One descent, one rotation, one shift serves both lanes, and
// because the tree logic is the arena's (shared with ArenaTree) each lane is
// bit-identical — values, sums, structure, snapshot bytes — to an ArenaTree
// fed that lane's values alone. FuzzPairOps holds it to that.
//
// Len, Contains, Delete, Min, Max, ShiftKeys, ShiftKeysInclusive and
// Validate are promoted from arena. The zero value is not usable; call
// NewArenaPair.
type ArenaPair struct {
	arena[[2]float64]
}

// PairEntry is a (true key, two-lane value) pair, the element of
// ArenaPair.AddMany.
type PairEntry = entryOf[[2]float64]

// NewArenaPair returns an empty two-lane arena RPAI tree.
func NewArenaPair() *ArenaPair { return &ArenaPair{newArena[[2]float64]()} }

// Total returns each lane's sum of all values.
func (t *ArenaPair) Total() (v0, v1 float64) {
	s := t.total()
	return s[0], s[1]
}

// Get returns the values stored under true key k and whether k is present.
func (t *ArenaPair) Get(k float64) (v0, v1 float64, ok bool) {
	v, ok := t.get(k)
	return v[0], v[1], ok
}

// Put stores (v0, v1) under key k, replacing any existing values.
func (t *ArenaPair) Put(k, v0, v1 float64) { t.insert(k, [2]float64{v0, v1}, true) }

// Add adds (d0, d1) to the values stored under k, inserting k if absent, and
// returns the values now stored — so a caller that drops a key whose lane
// reaches zero needs no Get.
func (t *ArenaPair) Add(k, d0, d1 float64) (v0, v1 float64) {
	v := t.insert(k, [2]float64{d0, d1}, false)
	return v[0], v[1]
}

// GetSum returns each lane's sum of values over all entries with key <= k.
func (t *ArenaPair) GetSum(k float64) (s0, s1 float64) {
	s := t.prefix(k, false)
	return s[0], s[1]
}

// GetSumLess returns each lane's sum of values over all entries with key < k.
func (t *ArenaPair) GetSumLess(k float64) (s0, s1 float64) {
	s := t.prefix(k, true)
	return s[0], s[1]
}

// SuffixSum returns each lane's sum of values over all entries with key >= k.
func (t *ArenaPair) SuffixSum(k float64) (s0, s1 float64) {
	s := laneSub(t.total(), t.prefix(k, true))
	return s[0], s[1]
}

// SuffixSumGreater returns each lane's sum of values over all entries with
// key > k.
func (t *ArenaPair) SuffixSumGreater(k float64) (s0, s1 float64) {
	s := laneSub(t.total(), t.prefix(k, false))
	return s[0], s[1]
}

// PrefixSums is ArenaTree.PrefixSums against one lane (0 or 1).
func (t *ArenaPair) PrefixSums(lane int, keys, dst []float64, inclusive bool) {
	t.prefixSums(lane, keys, dst, inclusive)
}

// AddMany applies Add(e.Key, e.Value[0], e.Value[1]) for each entry in order,
// bit-identical to the sequential Adds.
func (t *ArenaPair) AddMany(entries []PairEntry) { t.addMany(entries) }

// Ascend calls fn for each entry in increasing key order until fn returns
// false.
func (t *ArenaPair) Ascend(fn func(k, v0, v1 float64) bool) {
	t.ascend(t.root, 0, func(k float64, v [2]float64) bool { return fn(k, v[0], v[1]) })
}

// Encode writes lane 0's structural snapshot to w0 and lane 1's to w1 in one
// walk; each is the stream an ArenaTree holding that lane would write.
func (t *ArenaPair) Encode(w0, w1 io.Writer) error { return t.encode(w0, w1) }

// DecodeArenaPair zips two snapshot streams of identical structure (as
// written by ArenaPair.Encode, or by two trees maintained under the same
// keys) into one two-lane tree: r0 supplies lane 0's values, r1 lane 1's. It
// fails if the streams disagree on shape, colours or keys.
func DecodeArenaPair(r0, r1 io.Reader) (*ArenaPair, error) {
	t := new(ArenaPair)
	if err := t.decode(r0, r1); err != nil {
		return nil, err
	}
	return t, nil
}
