package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"rpai/internal/aggindex"
	"rpai/internal/fenwick"
	"rpai/internal/paimap"
	"rpai/internal/rpai"
	"rpai/internal/rpaibtree"
	"rpai/internal/treemap"
)

// This file encodes the engine's index structures. Two regimes:
//
//   - The RPAI tree has its own structural codec (rpai.Encode/Decode) that
//     preserves the exact node layout — parent-relative keys, subtree sums,
//     link colors — so a restored tree is bit-identical, not merely
//     equivalent. The pointer and arena representations share this codec
//     byte-for-byte and therefore share one tag; decode always produces the
//     arena form. The stream is embedded length-prefixed because the decoder
//     buffers its reader and would otherwise over-read the enclosing stream.
//   - Every other structure (treemaps, PAI maps, the sorted/fenwick/btree
//     index baselines) is encoded as its canonical sorted entry list and
//     rebuilt by insertion. Entry lists are canonical regardless of the
//     in-memory shape, so encode(decode(encode(x))) == encode(x) holds for
//     them too.

// Index kind tags in encoded streams. Stable on-disk values: never renumber.
const (
	idxRPAI    = 1
	idxBTree   = 2
	idxPAI     = 3
	idxSorted  = 4
	idxFenwick = 5
)

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
	// Keys are finite (engine state never holds NaN keys), so a simple sort
	// is total.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Index encodes an aggregate index with a kind tag. RPAI trees use the
// structural codec; the rest are sorted entry lists.
func (e *Encoder) Index(idx aggindex.Index) {
	switch t := idx.(type) {
	case *rpai.Tree:
		e.U8(idxRPAI)
		e.rpaiStream(t.Encode)
	case *rpai.ArenaTree:
		// The arena tree shares the pointer tree's structural codec
		// byte-for-byte, so both encode under the same tag and snapshots
		// restore across the two representations in either direction.
		e.U8(idxRPAI)
		e.rpaiStream(t.Encode)
	case *rpaibtree.Tree:
		e.U8(idxBTree)
		e.indexEntries(idx)
	case *paimap.Map:
		e.U8(idxPAI)
		e.indexEntries(idx)
	case *aggindex.Sorted:
		e.U8(idxSorted)
		e.indexEntries(idx)
	case *fenwick.Index:
		e.U8(idxFenwick)
		e.indexEntries(idx)
	default:
		e.err = fmt.Errorf("checkpoint: unknown index type %T", idx)
	}
}

// IndexPair encodes the two lanes of p as two consecutive RPAI index streams,
// byte for byte what Index writes for two single-lane trees maintained under
// p's keys with lane 0's and lane 1's values. Both streams come from one walk
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

func (e *Encoder) rpaiStream(encode func(io.Writer) error) {
	var buf bytes.Buffer
	if e.err == nil {
		if err := encode(&buf); err != nil {
			e.err = err
			return
		}
	}
	e.Bytes(buf.Bytes())
}

func (e *Encoder) indexEntries(idx aggindex.Index) {
	e.U32(uint32(idx.Len()))
	idx.Ascend(func(k, v float64) bool {
		e.F64(k)
		e.F64(v)
		return e.err == nil
	})
}

// IndexPair decodes two consecutive index streams that were maintained under
// the same keys (written by IndexPair, or by Index twice). Two RPAI streams
// are zipped into one two-lane tree, node by node as they are read, and a
// difference in shape, colours or keys fails the decode; streams of any other
// kind come back as two independent indexes and pair is nil.
func (d *Decoder) IndexPair() (pair *rpai.ArenaPair, a, b aggindex.Index) {
	tag := d.U8()
	if tag != idxRPAI {
		return nil, d.index(tag), d.Index()
	}
	b0 := d.Bytes()
	if tag1 := d.U8(); d.err == nil && tag1 != idxRPAI {
		d.Fail(fmt.Errorf("checkpoint: index pair mixes kind tags %d and %d", tag, tag1))
	}
	b1 := d.Bytes()
	if d.err != nil {
		return nil, nil, nil
	}
	pair, err := rpai.DecodeArenaPair(bytes.NewReader(b0), bytes.NewReader(b1))
	if err != nil {
		d.Fail(err)
		return nil, nil, nil
	}
	return pair, nil, nil
}

// Index decodes an aggregate index written by Encoder.Index.
func (d *Decoder) Index() aggindex.Index { return d.index(d.U8()) }

func (d *Decoder) index(tag uint8) aggindex.Index {
	var kind aggindex.Kind
	switch tag {
	case idxRPAI:
		// Restore into the arena representation regardless of which
		// representation wrote the stream: the codecs are byte-identical,
		// and executors hold the index behind the aggindex.Index interface.
		b := d.Bytes()
		if d.err != nil {
			return nil
		}
		t, err := rpai.DecodeArena(bytes.NewReader(b))
		if err != nil {
			d.Fail(err)
			return nil
		}
		return t
	case idxBTree:
		kind = aggindex.KindBTree
	case idxPAI:
		kind = aggindex.KindPAI
	case idxSorted:
		kind = aggindex.KindSorted
	case idxFenwick:
		kind = aggindex.KindFenwick
	default:
		if d.err == nil {
			d.Fail(fmt.Errorf("checkpoint: unknown index kind tag %d", tag))
		}
		return nil
	}
	idx := aggindex.New(kind)
	n := d.U32()
	var prev float64
	for i := uint32(0); i < n && d.err == nil; i++ {
		k := d.FiniteF64()
		v := d.F64()
		if d.err != nil {
			break
		}
		if i > 0 && k <= prev {
			d.Fail(errors.New("checkpoint: index keys not strictly ascending"))
			break
		}
		prev = k
		idx.Put(k, v)
	}
	return idx
}
