package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"rpai/internal/paimap"
	"rpai/internal/rpai"
	"rpai/internal/treemap"
)

// This file encodes the engine's index structures. Two regimes:
//
//   - The level tree (a relation state's per-predicate index) has its own
//     structural codec (rpai.LevelTree.Encode/DecodeLevelTree) that preserves
//     the exact node layout — shape, link colours, lanes — so a restored tree
//     is bit-identical, not merely equivalent. It is embedded length-prefixed
//     because the decoder buffers its reader and would otherwise over-read the
//     enclosing stream; so are the two RPAI lane streams of the layout it
//     replaced, which ParentLevels still reads.
//   - Every other structure (treemaps, float maps, the equality executor's
//     PAI map) is encoded as its canonical sorted entry list and rebuilt by
//     insertion. Entry lists are canonical regardless of the in-memory shape,
//     so encode(decode(encode(x))) == encode(x) holds for them too.

// Index kind tags in encoded streams. Stable on-disk values: never renumber.
// The engine writes only idxLevels (relation state) and idxPAI (the equality
// executor's map), and reads idxRPAI in the relation-state layout that
// preceded idxLevels; the other three name index kinds it no longer builds,
// kept so a stream carrying one is refused by name.
const (
	idxRPAI    = 1
	idxBTree   = 2
	idxPAI     = 3
	idxSorted  = 4
	idxFenwick = 5
	idxLevels  = 6
)

// kindNames names each tag in refusal errors.
var kindNames = [...]string{idxRPAI: "rpai", idxBTree: "btree", idxPAI: "pai", idxSorted: "sorted", idxFenwick: "fenwick", idxLevels: "levels"}

// TreeMap encodes t as its sorted entry list. t must be non-nil; callers
// encode structure presence separately (it is derivable from the query).
func (e *Encoder) TreeMap(t *treemap.Tree) {
	e.U32(uint32(t.Len()))
	t.Ascend(func(k, v float64) bool {
		e.F64(k)
		e.F64(v)
		return e.err == nil
	})
}

// TreeMap decodes an entry list into a fresh treemap, validating that keys
// are finite and strictly ascending (the canonical form TreeMap writes).
func (d *Decoder) TreeMap() *treemap.Tree {
	t := treemap.New()
	n := d.U32()
	var prev float64
	for i := uint32(0); i < n && d.err == nil; i++ {
		k := d.FiniteF64()
		v := d.F64()
		if d.err != nil {
			break
		}
		if i > 0 && k <= prev {
			d.Fail(errors.New("checkpoint: treemap keys not strictly ascending"))
			break
		}
		prev = k
		t.Put(k, v)
	}
	return t
}

// F64Map encodes a float-keyed map as its sorted entry list (the canonical
// order; Go map iteration order is random).
func (e *Encoder) F64Map(m map[float64]float64) {
	e.U32(uint32(len(m)))
	for _, k := range sortedKeys(m) {
		e.F64(k)
		e.F64(m[k])
	}
}

// F64Map decodes a sorted entry list into m (which must be non-nil when the
// list is non-empty; engine constructors allocate their maps up front).
func (d *Decoder) F64Map(m map[float64]float64) {
	n := d.U32()
	var prev float64
	for i := uint32(0); i < n && d.err == nil; i++ {
		k := d.FiniteF64()
		v := d.F64()
		if d.err != nil {
			break
		}
		if i > 0 && k <= prev {
			d.Fail(errors.New("checkpoint: map keys not strictly ascending"))
			break
		}
		prev = k
		m[k] = v
	}
}

func sortedKeys(m map[float64]float64) []float64 {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Keys are finite and distinct (engine state never holds NaN keys), so
	// the order is total and the encoding canonical.
	sort.Float64s(keys)
	return keys
}

// Index encodes the equality executor's PAI map under its kind tag, as its
// sorted entry list.
func (e *Encoder) Index(m *paimap.Map) {
	e.U8(idxPAI)
	e.U32(uint32(m.Len()))
	m.Ascend(func(k, v float64) bool {
		e.F64(k)
		e.F64(v)
		return e.err == nil
	})
}

// Levels encodes a relation state's level tree under its kind tag.
func (e *Encoder) Levels(t *rpai.LevelTree) {
	var b bytes.Buffer
	if e.err == nil {
		e.err = t.Encode(&b)
	}
	e.U8(idxLevels)
	e.Bytes(b.Bytes())
}

// Index decodes a PAI map written by Encoder.Index. A stream of any other
// kind is refused with an error naming it.
func (d *Decoder) Index() *paimap.Map {
	d.kind(idxPAI)
	entries := make(map[float64]float64)
	d.F64Map(entries)
	m := paimap.New()
	for k, v := range entries {
		m.Put(k, v)
	}
	return m
}

// Levels decodes a level tree written by Encoder.Levels. A stream of any
// other kind is refused with an error naming it.
func (d *Decoder) Levels() *rpai.LevelTree {
	d.kind(idxLevels)
	b := d.Bytes()
	if d.err != nil {
		return nil
	}
	t, err := rpai.DecodeLevelTree(bytes.NewReader(b))
	if err != nil {
		d.Fail(err)
		return nil
	}
	return t
}

// ParentLevels reads the index half of the relation-state layout that
// preceded the level tree — two idxRPAI streams, the count and term lanes of
// an RPAI keyed by running weight sums — and converts it with the level keys
// and weights (the layout's treemap entries, in the RPAI's key order) through
// rpai.DecodeParentLevels. Lane streams that disagree on structure fail the
// decode, and a stream of any other kind is refused with an error naming it.
func (d *Decoder) ParentLevels(keys, weights []float64) *rpai.LevelTree {
	var lanes [2][]byte
	for i := range lanes {
		d.kind(idxRPAI)
		lanes[i] = d.Bytes()
	}
	if d.err != nil {
		return nil
	}
	t, err := rpai.DecodeParentLevels(bytes.NewReader(lanes[0]), bytes.NewReader(lanes[1]), keys, weights)
	if err != nil {
		d.Fail(err)
		return nil
	}
	return t
}

// kind reads an index kind tag and fails the decode unless it is want.
func (d *Decoder) kind(want uint8) {
	tag := d.U8()
	switch {
	case d.err != nil || tag == want:
	case int(tag) < len(kindNames) && kindNames[tag] != "":
		d.Fail(fmt.Errorf("checkpoint: %s index stream (kind tag %d) where a %s stream belongs; the engine restores only the index kinds it builds",
			kindNames[tag], tag, kindNames[want]))
	default:
		d.Fail(fmt.Errorf("checkpoint: unknown index kind tag %d", tag))
	}
}
