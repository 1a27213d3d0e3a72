package rpai

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// encode writes, for each lane, the same structural snapshot stream as
// Tree.Encode — magic, version, node count, then a preorder walk of (flags,
// relative key, value) — to that lane's writer, all in one walk. Because the
// arena maintains bit-identical structure to the pointer tree, a snapshot
// taken from either implementation re-encodes to the same bytes, and a lane's
// stream is the stream a one-lane tree holding that lane would write.
func (t *arena[V]) encode(ws ...io.Writer) error {
	var lane V
	if len(ws) != len(lane) {
		panic("rpai: one snapshot writer per lane")
	}
	bws := make([]*bufio.Writer, len(ws))
	for i, w := range ws {
		bw := bufio.NewWriter(w)
		if _, err := bw.WriteString(encodeMagic); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(encodeVersion)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(t.Len())); err != nil {
			return err
		}
		bws[i] = bw
	}
	if err := t.encodeNode(bws, t.root); err != nil {
		return err
	}
	for _, bw := range bws {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (t *arena[V]) encodeNode(ws []*bufio.Writer, i int32) error {
	if i < 0 {
		return nil
	}
	n := &t.nodes[i]
	var flags byte
	if n.left >= 0 {
		flags |= flagLeft
	}
	if n.right >= 0 {
		flags |= flagRight
	}
	if n.color == red {
		flags |= flagRed
	}
	var buf [17]byte
	buf[0] = flags
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(n.key))
	for lane, w := range ws {
		binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(n.value[lane]))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	if err := t.encodeNode(ws, n.left); err != nil {
		return err
	}
	return t.encodeNode(ws, t.nodes[i].right)
}

// decode restores the tree from one snapshot stream per lane, written by
// Tree.Encode or an arena encode. The streams are read in lockstep and must
// describe the same structure (node count, shape, colours, relative keys);
// each contributes its lane's values. The augmented fields are recomputed
// and the result is validated, so a corrupted stream is reported rather than
// silently accepted.
func (t *arena[V]) decode(rs ...io.Reader) error {
	var lane V
	if len(rs) != len(lane) {
		panic("rpai: one snapshot reader per lane")
	}
	*t = newArena[V]()
	d := arenaDecoder[V]{t: t, rs: make([]*bufio.Reader, len(rs))}
	var count uint32
	for i, r := range rs {
		br := bufio.NewReader(r)
		magic := make([]byte, len(encodeMagic))
		if _, err := io.ReadFull(br, magic); err != nil {
			return fmt.Errorf("rpai: reading snapshot header: %w", err)
		}
		if string(magic) != encodeMagic {
			return fmt.Errorf("rpai: bad snapshot magic %q", magic)
		}
		var version, c uint32
		if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
			return err
		}
		if version != encodeVersion {
			return fmt.Errorf("rpai: unsupported snapshot version %d", version)
		}
		if err := binary.Read(br, binary.LittleEndian, &c); err != nil {
			return err
		}
		if i > 0 && c != count {
			return fmt.Errorf("rpai: lane snapshots disagree on node count: %d vs %d", count, c)
		}
		count = c
		d.rs[i] = br
	}
	if count > 0 {
		t.nodes = make([]anode[V], 0, count)
	}
	root, err := d.node(count > 0)
	if err != nil {
		return err
	}
	t.root = root
	if t.Len() != int(count) {
		return fmt.Errorf("rpai: snapshot node count mismatch: header %d, stream %d", count, t.Len())
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("rpai: snapshot fails validation: %w", err)
	}
	return nil
}

type arenaDecoder[V lanes] struct {
	rs []*bufio.Reader
	t  *arena[V]
}

func (d *arenaDecoder[V]) node(present bool) (int32, error) {
	if !present {
		return nilIdx, nil
	}
	var (
		first [9]byte // lane 0's flags and relative key, which every lane must repeat
		value V
	)
	for lane, r := range d.rs {
		var buf [17]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nilIdx, fmt.Errorf("rpai: truncated snapshot: %w", err)
		}
		if lane == 0 {
			copy(first[:], buf[:9])
		} else if [9]byte(buf[:9]) != first {
			return nilIdx, fmt.Errorf("rpai: lane snapshots disagree on tree structure")
		}
		value[lane] = math.Float64frombits(binary.LittleEndian.Uint64(buf[9:]))
	}
	flags := first[0]
	i := d.t.alloc(math.Float64frombits(binary.LittleEndian.Uint64(first[1:])), value)
	d.t.nodes[i].color = flags&flagRed != 0
	l, err := d.node(flags&flagLeft != 0)
	if err != nil {
		return nilIdx, err
	}
	d.t.nodes[i].left = l
	r, err := d.node(flags&flagRight != 0)
	if err != nil {
		return nilIdx, err
	}
	d.t.nodes[i].right = r
	d.t.update(i)
	return i, nil
}
