package rpai

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Encode writes a compact binary snapshot of the tree. The stream preserves
// the exact structure (relative keys, colors, values), so Decode restores a
// bit-identical tree; executors can use this to checkpoint long-running
// streams.
//
// Format: magic "RPAI", uint32 version, uint32 node count, then a preorder
// walk of nodes as (flags byte, relative key, value) with two flag bits
// marking child presence and one the link color.
func (t *Tree) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	copy(hdr[:], encodeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], encodeVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.Len()))
	bw.Write(hdr[:])
	t.encodeNode(bw, t.root)
	return bw.Flush() // bufio errors are sticky
}

const (
	encodeMagic   = "RPAI"
	encodeVersion = 1

	flagLeft  = 1 << 0
	flagRight = 1 << 1
	flagRed   = 1 << 2
)

func (t *Tree) encodeNode(w *bufio.Writer, i int32) {
	if i < 0 {
		return
	}
	n := &t.nodes[i]
	var buf [17]byte
	if n.left >= 0 {
		buf[0] |= flagLeft
	}
	if n.right >= 0 {
		buf[0] |= flagRight
	}
	if n.color == red {
		buf[0] |= flagRed
	}
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(n.key))
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(n.value))
	w.Write(buf[:])
	t.encodeNode(w, n.left)
	t.encodeNode(w, n.right)
}

// Decode reads a snapshot written by Encode and returns the restored tree.
// The augmented fields are recomputed and the result is validated, so a
// corrupted stream is reported rather than silently accepted.
func Decode(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("rpai: reading snapshot header: %w", err)
	}
	if string(hdr[:4]) != encodeMagic {
		return nil, fmt.Errorf("rpai: bad snapshot magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != encodeVersion {
		return nil, fmt.Errorf("rpai: unsupported snapshot version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[8:])
	t := New()
	if count > 0 {
		// The header is untrusted: preallocate at most 1<<20 nodes and let
		// append grow the slab past that as the stream proves its length.
		t.nodes = make([]tnode, 0, min(count, 1<<20))
		root, err := t.decodeNode(br, 1)
		if err != nil {
			return nil, err
		}
		t.root = root
	}
	if t.Len() != int(count) {
		return nil, fmt.Errorf("rpai: snapshot node count mismatch: header %d, stream %d", count, t.Len())
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rpai: snapshot fails validation: %w", err)
	}
	return t, nil
}

// decodeNode decodes the subtree whose root sits at the given depth (the
// root's is 1). A stream deeper than any valid tree is refused as it arrives,
// so the recursion is bounded by maxPathLen rather than by the stream.
func (t *Tree) decodeNode(r *bufio.Reader, depth int) (int32, error) {
	if depth > maxPathLen {
		return nilIdx, fmt.Errorf("rpai: snapshot deeper than %d levels", maxPathLen)
	}
	var buf [17]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nilIdx, fmt.Errorf("rpai: truncated snapshot: %w", err)
	}
	i := t.alloc(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:])),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[9:])))
	t.nodes[i].color = buf[0]&flagRed != 0
	if buf[0]&flagLeft != 0 {
		c, err := t.decodeNode(r, depth+1)
		if err != nil {
			return nilIdx, err
		}
		t.nodes[i].left = c
	}
	if buf[0]&flagRight != 0 {
		c, err := t.decodeNode(r, depth+1)
		if err != nil {
			return nilIdx, err
		}
		t.nodes[i].right = c
	}
	t.update(i)
	return i, nil
}
