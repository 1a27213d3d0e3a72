package query

// Schema is an append-only column layout: column Cols()[i] lives in row slot
// i, and a column keeps its slot for the life of every schema extended from
// it. A Schema is immutable — Extend returns a new one — so it can be shared
// across goroutines, and a row laid out under one schema is read correctly
// by expressions bound to any schema it extends.
type Schema struct {
	cols []string
	slot map[string]int
}

// NewSchema returns the schema holding cols in order, duplicates dropped.
func NewSchema(cols ...string) *Schema { return (*Schema)(nil).Extend(cols...) }

// Len is the number of slots: the width of a row under the schema.
func (s *Schema) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cols)
}

// Cols returns the column names in slot order. The slice is shared; callers
// must not modify it.
func (s *Schema) Cols() []string {
	if s == nil {
		return nil
	}
	return s.cols
}

// Slot returns the slot of col.
func (s *Schema) Slot(col string) (int, bool) {
	if s == nil {
		return 0, false
	}
	i, ok := s.slot[col]
	return i, ok
}

// SlotBytes is Slot for a column name held as bytes; the lookup does not
// allocate.
func (s *Schema) SlotBytes(col []byte) (int, bool) {
	if s == nil {
		return 0, false
	}
	i, ok := s.slot[string(col)]
	return i, ok
}

// Extend returns the schema with every column of cols it lacks appended, in
// order. It returns s itself when nothing is new, so pointer equality tells
// whether two schemas differ.
func (s *Schema) Extend(cols ...string) *Schema {
	fresh := 0
	for i, c := range cols {
		if _, ok := s.Slot(c); !ok && !containsStr(cols[:i], c) {
			fresh++
		}
	}
	if fresh == 0 && s != nil {
		return s
	}
	out := &Schema{
		cols: make([]string, s.Len(), s.Len()+fresh),
		slot: make(map[string]int, s.Len()+fresh),
	}
	copy(out.cols, s.Cols())
	for i, c := range out.cols {
		out.slot[c] = i
	}
	for _, c := range cols {
		if _, ok := out.slot[c]; !ok {
			out.slot[c] = len(out.cols)
			out.cols = append(out.cols, c)
		}
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, c := range list {
		if c == s {
			return true
		}
	}
	return false
}

// Bound is an expression compiled against a Schema: it reads row slots
// instead of hashing column names. It evaluates in exactly Expr.Eval's
// order, so on a row laid out from a tuple (a column absent from the tuple
// holding 0) its result is bit-identical to Eval on that tuple.
type Bound func(row []float64) float64

// Bind compiles e against s. A column s does not hold reads 0, as a tuple
// lacking it does. A column or constant directly under a binary operator is
// read in place rather than through a nested call, so the common shapes
// (price * volume, 2 * price) cost one call.
func Bind(e Expr, s *Schema) Bound {
	switch e := e.(type) {
	case Const:
		c := float64(e)
		return func([]float64) float64 { return c }
	case Col:
		if i, ok := s.Slot(string(e)); ok {
			return func(row []float64) float64 { return row[i] }
		}
		return func([]float64) float64 { return 0 }
	case BinOp:
		return bindBinOp(e, s)
	}
	// An Expr implementation from outside this package: no slots to bind.
	panic("query: cannot bind expression " + e.String())
}

// leaf reports e as a slot read (slot >= 0) or a constant (slot < 0, value
// c) when it is a Col or a Const; a column missing from s is the constant 0.
func leaf(e Expr, s *Schema) (slot int, c float64, ok bool) {
	switch e := e.(type) {
	case Const:
		return -1, float64(e), true
	case Col:
		if i, in := s.Slot(string(e)); in {
			return i, 0, true
		}
		return -1, 0, true
	}
	return 0, 0, false
}

func bindBinOp(b BinOp, s *Schema) Bound {
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
	default:
		panic("query: unknown binary operator")
	}
	li, lc, lok := leaf(b.L, s)
	ri, rc, rok := leaf(b.R, s)
	if lok && rok {
		switch {
		case li >= 0 && ri >= 0:
			return binSlots(b.Op, li, ri)
		case li >= 0:
			return binSlotConst(b.Op, li, rc)
		case ri >= 0:
			return binConstSlot(b.Op, lc, ri)
		}
	}
	l, r := Bind(b.L, s), Bind(b.R, s)
	switch b.Op {
	case OpAdd:
		return func(row []float64) float64 { return l(row) + r(row) }
	case OpSub:
		return func(row []float64) float64 { return l(row) - r(row) }
	case OpMul:
		return func(row []float64) float64 { return l(row) * r(row) }
	}
	return func(row []float64) float64 { return l(row) / r(row) }
}

func binSlots(op byte, a, b int) Bound {
	switch op {
	case OpAdd:
		return func(row []float64) float64 { return row[a] + row[b] }
	case OpSub:
		return func(row []float64) float64 { return row[a] - row[b] }
	case OpMul:
		return func(row []float64) float64 { return row[a] * row[b] }
	}
	return func(row []float64) float64 { return row[a] / row[b] }
}

func binSlotConst(op byte, a int, c float64) Bound {
	switch op {
	case OpAdd:
		return func(row []float64) float64 { return row[a] + c }
	case OpSub:
		return func(row []float64) float64 { return row[a] - c }
	case OpMul:
		return func(row []float64) float64 { return row[a] * c }
	}
	return func(row []float64) float64 { return row[a] / c }
}

func binConstSlot(op byte, c float64, b int) Bound {
	switch op {
	case OpAdd:
		return func(row []float64) float64 { return c + row[b] }
	case OpSub:
		return func(row []float64) float64 { return c - row[b] }
	case OpMul:
		return func(row []float64) float64 { return c * row[b] }
	}
	return func(row []float64) float64 { return c / row[b] }
}

// Columns returns every column the query reads — its aggregate term, its
// grouping columns, and each predicate side, subqueries and nested
// conditions included — sorted and without duplicates: the columns a row
// schema must hold for the query's executors to see every value they read.
func (q *Query) Columns() []string {
	var cols []string
	if q.Agg != nil {
		cols = append(cols, q.Agg.Cols()...)
	}
	cols = append(cols, q.GroupBy...)
	for _, v := range q.ExtractPredValues() {
		cols = v.appendCols(cols)
	}
	return dedup(cols)
}

func (v Value) appendCols(cols []string) []string {
	if v.Sub != nil {
		return v.Sub.appendCols(cols)
	}
	if v.Expr != nil {
		cols = append(cols, v.Expr.Cols()...)
	}
	return cols
}

func (s *Subquery) appendCols(cols []string) []string {
	if s.Of != nil {
		cols = append(cols, s.Of.Cols()...)
	}
	if s.Where != nil {
		cols = append(cols, s.Where.Inner.Cols()...)
		cols = append(cols, s.Where.Outer.Cols()...)
	}
	for _, f := range s.Filters {
		cols = append(cols, f.Inner.Cols()...)
	}
	if n := s.Nested; n != nil {
		cols = append(cols, n.Col)
		cols = n.Threshold.appendCols(cols)
		if n.Inner != nil {
			cols = n.Inner.appendCols(cols)
		}
	}
	return cols
}
