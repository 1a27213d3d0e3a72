package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"rpai/internal/query"
)

// encodeEventInlineCols bounds the column-name scratch EncodeEvent keeps on
// the stack. Real event schemas have a handful of columns; wider tuples fall
// back to a heap slice.
const encodeEventInlineCols = 16

// EncodeEvent appends e's canonical binary encoding to buf: the X weight
// followed by the tuple's columns in sorted name order. The serving layer
// uses it to frame events in its write-ahead logs (append-style, so
// steady-state logging does not allocate once buf has grown). Column names
// are collected into a stack array and ordered by insertion sort rather than
// sort.Strings, so encoding a tuple of up to encodeEventInlineCols columns
// performs zero heap allocations.
func EncodeEvent(buf []byte, e Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.X))
	var inline [encodeEventInlineCols]string
	cols := inline[:0]
	if len(e.Tuple) > len(inline) {
		cols = make([]string, 0, len(e.Tuple))
	}
	for c := range e.Tuple {
		cols = append(cols, c)
	}
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c)))
		buf = append(buf, c...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Tuple[c]))
	}
	return buf
}

// DecodeEvent parses a payload written by EncodeEvent.
func DecodeEvent(p []byte) (Event, error) {
	var d EventDecoder
	return d.Decode(p)
}

// EventDecoder decodes event payloads while interning column names, so a
// long replay or ingest stream allocates each distinct column string once
// instead of once per event. The zero value is ready to use. Not safe for
// concurrent use; give each goroutine its own decoder.
type EventDecoder struct {
	names map[string]string
}

// intern returns the canonical string for the raw column bytes, allocating
// only on first sight of a name. The map lookup with a []byte key does not
// allocate (the compiler recognizes map[string]string indexed by converted
// bytes), so steady-state decoding of a stable schema costs no heap traffic
// beyond the tuple map itself.
func (d *EventDecoder) intern(raw []byte) string {
	if s, ok := d.names[string(raw)]; ok {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string, 8)
	}
	s := string(raw)
	d.names[s] = s
	return s
}

// Decode parses a payload written by EncodeEvent.
func (d *EventDecoder) Decode(p []byte) (Event, error) {
	fail := func() (Event, error) {
		return Event{}, fmt.Errorf("%w (%d bytes)", ErrMalformed, len(p))
	}
	if len(p) < 12 {
		return fail()
	}
	e := Event{X: math.Float64frombits(binary.LittleEndian.Uint64(p))}
	n := binary.LittleEndian.Uint32(p[8:])
	if n > 1024 {
		return fail()
	}
	p = p[12:]
	e.Tuple = make(query.Tuple, n)
	prev := ""
	for i := uint32(0); i < n; i++ {
		if len(p) < 4 {
			return fail()
		}
		cl := binary.LittleEndian.Uint32(p)
		if cl > 1024 || len(p) < int(4+cl+8) {
			return fail()
		}
		col := d.intern(p[4 : 4+cl])
		if i > 0 && col <= prev {
			return fail()
		}
		prev = col
		e.Tuple[col] = math.Float64frombits(binary.LittleEndian.Uint64(p[4+cl:]))
		p = p[4+cl+8:]
	}
	if len(p) != 0 {
		return fail()
	}
	return e, nil
}
