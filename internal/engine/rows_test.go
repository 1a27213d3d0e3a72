package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rpai/internal/query"
)

// randomRowEvent draws an event over a random subset of names, with values
// that stress bit-identity (signed zeros, NaN payloads, infinities,
// subnormals).
func randomRowEvent(rng *rand.Rand, names []string) Event {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000123),
		math.Inf(1), math.Inf(-1), 5e-324, -1.5, 3, 1e300}
	t := query.Tuple{}
	for _, c := range names {
		if rng.Intn(3) > 0 {
			t[c] = vals[rng.Intn(len(vals))]
		}
	}
	return Event{X: vals[rng.Intn(len(vals))], Tuple: t}
}

// TestRowDecoderMatchesDecode streams events whose column layout changes at
// random (so the layout cache hits, half-hits and misses) through the row
// decoder and the map decoder: every schema slot must hold the map's value
// bit for bit, 0 where the event lacks the column, and a column outside the
// schema must leave no trace.
func TestRowDecoderMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "bb", "c", "price", "volume", "zz"}
	schema := query.NewSchema("volume", "a", "zz", "price")
	var rd RowDecoder
	rd.SetSchema(schema)
	var md EventDecoder
	var rows Rows
	for i := 0; i < 2000; i++ {
		sub := names
		if rng.Intn(4) == 0 {
			sub = names[:rng.Intn(len(names))]
		}
		p := EncodeEvent(nil, randomRowEvent(rng, sub))
		want, err := md.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		rows.Reset(schema.Len())
		if err := rd.Decode(&rows, p); err != nil {
			t.Fatal(err)
		}
		x, row := rows.At(0)
		if math.Float64bits(x) != math.Float64bits(want.X) {
			t.Fatalf("event %d: X %v, want %v", i, x, want.X)
		}
		for slot, c := range schema.Cols() {
			if math.Float64bits(row[slot]) != math.Float64bits(want.Tuple[c]) {
				t.Fatalf("event %d: column %s = %v, want %v", i, c, row[slot], want.Tuple[c])
			}
		}
		if got, wantLayout := retained(&rd), sortedCols(want.Tuple); !reflect.DeepEqual(got, wantLayout) {
			t.Fatalf("event %d: retained layout %v, want the event's own %v", i, got, wantLayout)
		}
	}
}

// retained lists the column names the decoder holds between events.
func retained(d *RowDecoder) []string {
	out := []string{}
	for i := range d.ends {
		out = append(out, string(d.cachedName(i)))
	}
	return out
}

func sortedCols(t query.Tuple) []string {
	out := []string{}
	for c := range t {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TestRowDecoderRefusesWhatDecodeRefuses mutates valid payloads at random —
// flipped bytes, truncation, trailing bytes — and requires the row decoder
// to accept exactly what the map decoder accepts, so a record the catalog
// logs as received is always one encoding would reproduce. A refused event
// leaves the rows as they were.
func TestRowDecoderRefusesWhatDecodeRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	var rd RowDecoder
	rd.SetSchema(query.NewSchema(names...))
	var rows Rows
	refused := 0
	for i := 0; i < 5000; i++ {
		p := EncodeEvent(nil, randomRowEvent(rng, names))
		switch rng.Intn(3) {
		case 0:
			p[rng.Intn(len(p))] ^= byte(1 << rng.Intn(8))
		case 1:
			p = p[:rng.Intn(len(p))]
		default:
			p = append(p, byte(rng.Intn(256)))
		}
		_, werr := DecodeEvent(p)
		rows.Reset(3)
		gerr := rd.Decode(&rows, p)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("payload %x: Decode error %v, RowDecoder error %v", p, werr, gerr)
		}
		if gerr != nil {
			refused++
			if !errors.Is(gerr, ErrMalformed) {
				t.Fatalf("refusal %v does not wrap ErrMalformed", gerr)
			}
			if rows.Len() != 0 {
				t.Fatalf("refused payload left %d rows", rows.Len())
			}
		}
	}
	if refused == 0 {
		t.Fatal("no mutation was refused")
	}
}

// TestDecodeRecordFraming checks the record walk: per event a u32 length and
// a payload of exactly that length, nothing after the last.
func TestDecodeRecordFraming(t *testing.T) {
	var rec []byte
	for i := 0; i < 3; i++ {
		p := EncodeEvent(nil, Insert(query.Tuple{"a": float64(i)}))
		rec = append(rec, byte(len(p)), 0, 0, 0)
		rec = append(rec, p...)
	}
	var rd RowDecoder
	rd.SetSchema(query.NewSchema("a"))
	var rows Rows
	rows.Reset(1)
	if n, err := rd.DecodeRecord(&rows, rec); err != nil || n != 3 || rows.Len() != 3 {
		t.Fatalf("DecodeRecord = %d, %v (%d rows)", n, err, rows.Len())
	}
	for _, bad := range [][]byte{rec[:len(rec)-1], append(append([]byte(nil), rec...), 1), rec[:2]} {
		rows.Reset(1)
		if _, err := rd.DecodeRecord(&rows, bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("record of %d bytes: error %v, want ErrMalformed", len(bad), err)
		}
	}
}

// BenchmarkRowDecode is the row decoder's cost per event on a 256-event
// record. stable is the stack benchmark's stream shape — every event carries
// sym, price and volume — so each name matches the previous event's layout;
// alternating switches between two layouts on every event, so no event
// matches and every name is looked up in the schema.
func BenchmarkRowDecode(b *testing.B) {
	s := query.NewSchema("sym", "price", "volume")
	for _, c := range []struct {
		name string
		cols func(i int) []string
	}{
		{"stable", func(int) []string { return []string{"sym", "price", "volume"} }},
		{"alternating", func(i int) []string {
			if i%2 == 0 {
				return []string{"sym", "price", "volume"}
			}
			return []string{"sym", "price", "qty", "volume"}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			const n = 256
			var rec []byte
			for i := 0; i < n; i++ {
				t := query.Tuple{}
				for j, col := range c.cols(i) {
					t[col] = float64(i%16 + j + 1)
				}
				off := len(rec)
				rec = append(rec, 0, 0, 0, 0)
				rec = EncodeEvent(rec, Insert(t))
				binary.LittleEndian.PutUint32(rec[off:], uint32(len(rec)-off-4))
			}
			var d RowDecoder
			d.SetSchema(s)
			var rows Rows
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows.Reset(s.Len())
				if _, err := d.DecodeRecord(&rows, rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
