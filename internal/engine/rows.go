package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rpai/internal/query"
)

// Rows is a batch of events in row form, laid out under a query.Schema of
// Width columns: event i occupies Data[i*(Width+1) : (i+1)*(Width+1)], its
// weight X first and then one value per schema slot (0 for a column the
// event does not carry, as a tuple map reads a missing column). The layout
// holds no pointers, so a batch costs the collector nothing to scan and a
// reused Rows allocates nothing once grown.
type Rows struct {
	Width int
	Data  []float64
}

// Reset empties r and sets its width, keeping the backing array.
func (r *Rows) Reset(width int) {
	r.Width = width
	r.Data = r.Data[:0]
}

// Len is the number of events in r.
func (r *Rows) Len() int { return len(r.Data) / (r.Width + 1) }

// At returns event i's weight and row.
func (r *Rows) At(i int) (x float64, row []float64) {
	w := r.Width + 1
	rec := r.Data[i*w : (i+1)*w : (i+1)*w]
	return rec[0], rec[1:]
}

// Add appends an event of weight x with a zeroed row and returns the row
// for the caller to fill.
func (r *Rows) Add(x float64) []float64 {
	n, w := len(r.Data), r.Width+1
	if n+w > cap(r.Data) {
		r.Grow(max(n/w, 8))
	}
	r.Data = r.Data[:n+w]
	rec := r.Data[n : n+w : n+w]
	rec[0] = x
	clear(rec[1:])
	return rec[1:]
}

// Grow makes room for n more events, so filling them allocates at most
// once.
func (r *Rows) Grow(n int) {
	if need := len(r.Data) + n*(r.Width+1); need > cap(r.Data) {
		d := make([]float64, len(r.Data), need)
		copy(d, r.Data)
		r.Data = d
	}
}

// Append appends an event of weight x whose row is a copy of row, which
// must be r.Width long.
func (r *Rows) Append(x float64, row []float64) {
	r.Data = append(append(r.Data, x), row...)
}

// Project appends tuple t of weight x as a row whose slot i holds column
// cols[i] — the schema's Cols — so a column t lacks reads 0, as a map miss
// does.
func (r *Rows) Project(x float64, cols []string, t query.Tuple) {
	row := r.Add(x)
	for i, c := range cols {
		row[i] = t[c]
	}
}

// ErrMalformed is wrapped by every error a decoder returns for bytes that are
// not a canonical event encoding.
var ErrMalformed = errors.New("engine: malformed event payload")

// RowDecoder decodes EncodeEvent payloads straight into Rows bound to a
// schema: no tuple map is built and no column name is interned. A column the
// schema does not hold is validated like any other and skipped. The previous
// event's column layout — its names and their slots — is kept, so a stream
// whose events carry the same columns resolves every name by a byte compare
// against the previous event instead of a hash lookup; the layout is the
// only thing the decoder retains between events, and it is replaced by each
// event's own. The zero value decodes against an empty schema; SetSchema
// binds it. Not safe for concurrent use.
type RowDecoder struct {
	schema *query.Schema
	// names holds the previous event's column names back to back; name i
	// ends at ends[i] and lives in slot slots[i] (-1 outside the schema).
	names []byte
	ends  []int
	slots []int
}

// SetSchema binds the decoder to s. The layout cache is dropped when the
// schema changes: a name outside the old schema may be inside the new one.
func (d *RowDecoder) SetSchema(s *query.Schema) {
	if d.schema != s {
		d.schema = s
		d.names, d.ends, d.slots = d.names[:0], d.ends[:0], d.slots[:0]
	}
}

// Schema returns the schema the decoder is bound to.
func (d *RowDecoder) Schema() *query.Schema { return d.schema }

// DecodeRecord appends every event of rec to rows (which must be Reset to
// the schema's width) and returns how many it decoded. rec is a batch record:
// per event a u32-LE length and an EncodeEvent payload of exactly that
// length, with nothing after the last. Validation is Decode's: a payload
// whose column names are not strictly ascending, whose lengths overrun, or
// that leaves trailing bytes is refused, so an accepted record is exactly
// what encoding its events again would produce.
func (d *RowDecoder) DecodeRecord(rows *Rows, rec []byte) (int, error) {
	n := 0
	for len(rec) > 0 {
		if len(rec) < 4 {
			return n, fmt.Errorf("%w: event %d: truncated length prefix", ErrMalformed, n)
		}
		l := binary.LittleEndian.Uint32(rec)
		rec = rec[4:]
		if uint64(l) > uint64(len(rec)) {
			return n, fmt.Errorf("%w: event %d: length %d overruns the record", ErrMalformed, n, l)
		}
		if err := d.Decode(rows, rec[:l]); err != nil {
			return n, fmt.Errorf("event %d: %w", n, err)
		}
		rec = rec[l:]
		n++
	}
	return n, nil
}

// Decode appends the event payload p to rows.
func (d *RowDecoder) Decode(rows *Rows, p []byte) error {
	fail := func() error {
		return fmt.Errorf("%w (%d bytes)", ErrMalformed, len(p))
	}
	if len(p) < 12 {
		return fail()
	}
	n := binary.LittleEndian.Uint32(p[8:])
	if n > 1024 {
		return fail()
	}
	mark := len(rows.Data)
	row := rows.Add(math.Float64frombits(binary.LittleEndian.Uint64(p)))
	body := p[12:]
	// cached counts the leading columns that matched the previous event's
	// layout; from the first mismatch on, the layout is rebuilt in place.
	cached, matching := 0, true
	var prev []byte
	for i := 0; i < int(n); i++ {
		if len(body) < 4 {
			rows.Data = rows.Data[:mark]
			return fail()
		}
		cl := binary.LittleEndian.Uint32(body)
		if cl > 1024 || len(body) < int(4+cl+8) {
			rows.Data = rows.Data[:mark]
			return fail()
		}
		name := body[4 : 4+cl]
		if i > 0 && bytes.Compare(name, prev) <= 0 {
			rows.Data = rows.Data[:mark]
			return fail()
		}
		prev = name
		slot := -1
		if matching && i < len(d.ends) && bytes.Equal(name, d.cachedName(i)) {
			slot = d.slots[i]
			cached++
		} else {
			if matching {
				matching = false
				d.truncate(i)
			}
			if s, ok := d.schema.SlotBytes(name); ok {
				slot = s
			}
			d.names = append(d.names, name...)
			d.ends = append(d.ends, len(d.names))
			d.slots = append(d.slots, slot)
		}
		if slot >= 0 {
			row[slot] = math.Float64frombits(binary.LittleEndian.Uint64(body[4+cl:]))
		}
		body = body[4+cl+8:]
	}
	if matching && cached < len(d.ends) {
		d.truncate(cached)
	}
	if len(body) != 0 {
		rows.Data = rows.Data[:mark]
		return fail()
	}
	return nil
}

func (d *RowDecoder) cachedName(i int) []byte {
	start := 0
	if i > 0 {
		start = d.ends[i-1]
	}
	return d.names[start:d.ends[i]]
}

// truncate keeps the first i names of the cached layout.
func (d *RowDecoder) truncate(i int) {
	end := 0
	if i > 0 {
		end = d.ends[i-1]
	}
	d.names, d.ends, d.slots = d.names[:end], d.ends[:i], d.slots[:i]
}
