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
//   - The RPAI tree has its own structural codec (rpai.Encode/Decode) that
//     preserves the exact node layout — parent-relative keys, subtree sums,
//     link colors — so a restored tree is bit-identical, not merely
//     equivalent. A relation state's two-lane tree is written as two such
//     streams, one per lane, each embedded length-prefixed because the
//     decoder buffers its reader and would otherwise over-read the enclosing
//     stream.
//   - Every other structure (treemaps, float maps, the equality executor's
//     PAI map) is encoded as its canonical sorted entry list and rebuilt by
//     insertion. Entry lists are canonical regardless of the in-memory shape,
//     so encode(decode(encode(x))) == encode(x) holds for them too.

// Index kind tags in encoded streams. Stable on-disk values: never renumber.
// The engine writes only idxRPAI (relation-state lanes) and idxPAI (the
// equality executor's map); the other three name index kinds it no longer
// builds, kept so a stream carrying one is refused by name.
const (
	idxRPAI    = 1
	idxBTree   = 2
	idxPAI     = 3
	idxSorted  = 4
	idxFenwick = 5
)

// kindNames names each tag in refusal errors.
var kindNames = [...]string{idxRPAI: "rpai", idxBTree: "btree", idxPAI: "pai", idxSorted: "sorted", idxFenwick: "fenwick"}

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

// IndexPair encodes the two lanes of p as two consecutive RPAI index streams,
// byte for byte what two single-lane trees maintained under p's keys with
// lane 0's and lane 1's values would write. Both streams come from one walk
// of the tree.
func (e *Encoder) IndexPair(p *rpai.ArenaPair) {
	var b0, b1 bytes.Buffer
	if e.err == nil {
		e.err = p.Encode(&b0, &b1)
	}
	e.U8(idxRPAI)
	e.Bytes(b0.Bytes())
	e.U8(idxRPAI)
	e.Bytes(b1.Bytes())
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

// IndexPair decodes the two RPAI streams written by Encoder.IndexPair, zipped
// into one two-lane tree node by node as they are read; a difference in
// shape, colours or keys fails the decode, and a stream of any other kind is
// refused with an error naming it.
func (d *Decoder) IndexPair() *rpai.ArenaPair {
	var lanes [2][]byte
	for i := range lanes {
		d.kind(idxRPAI)
		lanes[i] = d.Bytes()
	}
	if d.err != nil {
		return nil
	}
	pair, err := rpai.DecodeArenaPair(bytes.NewReader(lanes[0]), bytes.NewReader(lanes[1]))
	if err != nil {
		d.Fail(err)
		return nil
	}
	return pair
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
