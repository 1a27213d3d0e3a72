package checkpoint

import (
	"bytes"
	"errors"
	"fmt"

	"rpai/internal/paimap"
	"rpai/internal/rpai"
)

// This file encodes the engine's index structures. Two regimes:
//
//   - The level tree (a relation state's per-predicate index) has its own
//     structural codec (rpai.LevelTree.Encode/DecodeLevelTree) that preserves
//     the exact node layout — shape, link colours, lanes — so a restored tree
//     is bit-identical, not merely equivalent. It is embedded length-prefixed
//     and decoded from its bytes in memory (rpai.UnmarshalLevelTree); the two
//     RPAI lane streams of the layout it replaced, which ParentLevels still
//     reads, are embedded the same way because their decoder buffers its
//     reader and would otherwise over-read the enclosing stream.
//   - Every other structure (the general algorithm's level trees, the
//     equality executor's per-level map and PAI map) is encoded as its
//     canonical entry list — one codec, Entries — and rebuilt by insertion.
//     Entry lists are canonical regardless of the in-memory shape, so
//     encode(decode(encode(x))) == encode(x) holds for them too.

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

// Entries writes an entry list: its length, then each key and its value.
// keys must be finite and strictly ascending (the canonical order Decoder.
// Entries checks), and vals as long.
func (e *Encoder) Entries(keys, vals []float64) {
	e.U32(uint32(len(keys)))
	for i, k := range keys {
		e.F64(k)
		e.F64(vals[i])
	}
}

// Entries reads an entry list written by Encoder.Entries, refusing keys that
// are not finite or not strictly ascending.
func (d *Decoder) Entries() (keys, vals []float64) {
	n := d.U32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		k := d.FiniteF64()
		v := d.F64()
		if d.err != nil {
			break
		}
		if i > 0 && k <= keys[i-1] {
			d.Fail(errors.New("checkpoint: entry keys not strictly ascending"))
			break
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	return keys, vals
}

// Index encodes the equality executor's PAI map under its kind tag, as its
// sorted entry list.
func (e *Encoder) Index(m *paimap.Map) {
	var keys, vals []float64
	m.Ascend(func(k, v float64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	e.U8(idxPAI)
	e.Entries(keys, vals)
}

// Levels encodes a relation state's level tree under its kind tag. Into a
// bytes.Buffer (a snapshot being assembled in memory) the stream is encoded
// in place, in the buffer grown once for it.
func (e *Encoder) Levels(t *rpai.LevelTree) {
	e.U8(idxLevels)
	n := t.EncodedLen()
	e.U32(uint32(n))
	if e.err != nil {
		return
	}
	if buf, ok := e.w.(*bytes.Buffer); ok {
		buf.Grow(n)
		buf.Write(t.AppendEncoded(buf.AvailableBuffer()))
		return
	}
	e.write(t.AppendEncoded(make([]byte, 0, n)))
}

// Index decodes a PAI map written by Encoder.Index. A stream of any other
// kind is refused with an error naming it.
func (d *Decoder) Index() *paimap.Map {
	d.kind(idxPAI)
	keys, vals := d.Entries()
	m := paimap.New()
	for i, k := range keys {
		m.Put(k, vals[i])
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
	t, err := rpai.UnmarshalLevelTree(b)
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
