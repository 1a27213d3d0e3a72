package query

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// TestSchemaExtendKeepsSlots checks the append-only rule every row reader
// relies on: extending a schema never moves a column, returns the schema
// itself when nothing is new, and leaves the original untouched.
func TestSchemaExtendKeepsSlots(t *testing.T) {
	s := NewSchema("sym", "price", "sym")
	if got := s.Cols(); !reflect.DeepEqual(got, []string{"sym", "price"}) {
		t.Fatalf("NewSchema cols = %v", got)
	}
	if s.Extend("price", "sym") != s {
		t.Fatal("Extend with known columns returned a new schema")
	}
	w := s.Extend("volume", "price", "qty", "volume")
	if got := w.Cols(); !reflect.DeepEqual(got, []string{"sym", "price", "volume", "qty"}) {
		t.Fatalf("extended cols = %v", got)
	}
	for i, c := range s.Cols() {
		if j, ok := w.Slot(c); !ok || j != i {
			t.Fatalf("column %s moved from slot %d to %d", c, i, j)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Extend modified its receiver: %v", s.Cols())
	}
	if i, ok := w.SlotBytes([]byte("qty")); !ok || i != 3 {
		t.Fatalf("SlotBytes(qty) = %d, %v", i, ok)
	}
}

// TestQueryColumns checks that Columns reaches every place a query reads a
// column: the aggregate term, grouping, predicate sides, subquery terms,
// correlations, filters and nested conditions.
func TestQueryColumns(t *testing.T) {
	q := &Query{
		Agg:     Mul(Col("price"), Col("volume")),
		GroupBy: []string{"sym"},
		Preds: []Predicate{{
			Left: ValSub(0.5, &Subquery{Kind: Sum, Of: Col("w"),
				Filters: []FilterPred{{Inner: Col("f"), Op: Gt, Value: 1}}}),
			Op: Lt,
			Right: ValSub(1, &Subquery{Kind: Sum, Of: Col("volume"),
				Where: &CorrPred{Inner: Col("price"), Op: Le, Outer: Col("price")},
				Nested: &NestedCond{
					Threshold: ValSub(1, &Subquery{Kind: Sum, Of: Col("t")}),
					Op:        Lt,
					Inner:     &Subquery{Kind: Sum, Of: Col("n"), Where: &CorrPred{Inner: Col("lvl"), Op: Le, Outer: Col("lvl")}},
					Col:       "lvl",
				}}),
		}},
	}
	want := []string{"f", "lvl", "n", "price", "sym", "t", "volume", "w"}
	if got := q.Columns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Columns = %v, want %v", got, want)
	}
}

// bindValues are the values FuzzBindExpr draws rows and constants from:
// signed zeros, NaN payloads, infinities, subnormals and ordinary numbers.
var bindValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1, -1, 0.1, 3, -7.5, 1e308, -1e308,
}

var bindCols = []string{"a", "b", "c", "d"}

// fuzzExpr builds an expression from data: a tag byte picks a constant, a
// column or a binary operator over two subtrees.
func fuzzExpr(data []byte, depth int) (Expr, []byte) {
	if len(data) == 0 {
		return Const(1), nil
	}
	tag := data[0]
	data = data[1:]
	switch {
	case tag%4 == 0 || depth > 6:
		if tag&0x80 != 0 && len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			return Const(v), data[8:]
		}
		return Const(bindValues[int(tag>>2)%len(bindValues)]), data
	case tag%4 == 1:
		return Col(bindCols[int(tag>>2)%len(bindCols)]), data
	}
	op := [...]byte{OpAdd, OpSub, OpMul, OpDiv}[int(tag>>2)%4]
	l, data := fuzzExpr(data, depth+1)
	r, data := fuzzExpr(data, depth+1)
	return BinOp{Op: op, L: l, R: r}, data
}

// FuzzBindExpr checks Bind against Eval: a random Const/Col/BinOp tree,
// evaluated on random rows whose columns may be absent from the tuple (and
// read 0 from the row), must give the same Float64bits either way — on a
// schema that lists the columns in a data-chosen order, so slots are not
// the column order. The one exception is the payload of a NaN result: where
// two NaNs meet in a commutative operation, the hardware keeps the payload
// of whichever operand the compiler put first, an order Go leaves
// unspecified and no two functions need share. A NaN result must be NaN on
// both sides; its payload is not compared. (The engine refuses a NaN term,
// weight or key at admission, and formats every NaN group key alike.)
func FuzzBindExpr(f *testing.F) {
	f.Add([]byte{2, 1, 5})                                   // a + b
	f.Add([]byte{10, 1, 5, 3})                               // (a * b), constant tail
	f.Add([]byte{14, 2, 1, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // (a / b) / const
	f.Add([]byte{6, 8, 13, 3, 0xff, 0x00, 0xaa})             // (0.1 - d), rows of extremes
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest := fuzzExpr(data, 0)
		perm := []string{"d", "b", "a", "c"}
		if len(rest) > 0 && rest[0]&1 != 0 {
			perm = []string{"x", "c", "a", "d", "b"}
		}
		s := NewSchema(perm...)
		bound := Bind(e, s)
		for r := 0; r < 8; r++ {
			tuple := Tuple{}
			row := make([]float64, s.Len())
			for i, c := range bindCols {
				k := 0
				if len(rest) > 0 {
					k = int(rest[(r*len(bindCols)+i)%len(rest)]) + r*7 + i
				}
				if k%5 == 0 {
					continue // absent: the tuple misses it, the row holds 0
				}
				v := bindValues[k%len(bindValues)]
				tuple[c] = v
				slot, _ := s.Slot(c)
				row[slot] = v
			}
			want, got := e.Eval(tuple), bound(row)
			if math.IsNaN(want) && math.IsNaN(got) {
				continue
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s on %v: Bind gives %v (%#x), Eval %v (%#x)",
					e, tuple, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
