package rpai

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"rpai/internal/treemap"
)

// level is one entry of FuzzLevelTree's sorted-slice model.
type level struct{ k, w, c, t, abs float64 }

// parentLevels is the state a correlated predicate kept before the level
// tree: a column-keyed treemap of level weights beside a count and a term
// RPAI keyed by running weight sums, maintained with the parent executor's
// shift-and-add. On exactly summable inputs the level tree must read from it,
// bit for bit, what this structure reads.
type parentLevels struct {
	strict    bool
	byKey     *treemap.Tree
	cnt, term *Tree
}

func (p *parentLevels) add(k, dw, dc, dt float64) {
	rhs := p.byKey.PrefixSum(k)
	if p.strict {
		rhs = p.byKey.PrefixSumLess(k)
	}
	volAt, _ := p.byKey.Get(k)
	p.byKey.Add(k, dw)
	if v, _ := p.byKey.Get(k); v == 0 {
		p.byKey.Delete(k)
	}
	at, inclusive, key := rhs-volAt, false, rhs+dw
	if p.strict {
		at, inclusive, key = rhs, !(volAt > 0), rhs
	}
	p.cnt.shift(at, dw, inclusive)
	p.term.shift(at, dw, inclusive)
	p.cnt.Add(key, dc)
	p.term.Add(key, dt)
	if v, _ := p.cnt.Get(key); v == 0 {
		p.cnt.Delete(key)
		p.term.Delete(key)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// near is the model comparison of arbitrary-float sums: within 1e-9 of the
// summed magnitudes that went into them.
func near(a, b, scale float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, scale) }

// FuzzLevelTree drives a LevelTree through inserts of rows and deletes of
// live rows and checks it after every operation:
//
//   - dyadic mode (quarter weights, eighth terms, quarter keys — every sum
//     exact): against the parent's two structures (parentLevels), every
//     weight-steered read — Prefix at every RPAI key and between them, both
//     strictnesses, and the shared-descent Prefixes over all those bounds —
//     must equal the RPAI's prefix bit for bit, and the totals too;
//   - arbitrary mode (weights, terms and keys any finite floats, weights
//     positive): against a sorted slice of levels, whose lanes must equal the
//     tree's bit for bit (both add the same floats in the same order) and
//     whose prefix sums must be near every Prefix read taken between two
//     positions (a bound on a position is a tie decided by rounding);
//
// and in both, SteerKey reads against the sorted slice, Prefixes against
// Prefix bit for bit, Validate, and a snapshot that decodes and re-encodes to
// the same bytes.
//
// data[0] bit 0 picks arbitrary mode, bit 1 the strict steering
// (SteerWeightBefore, else SteerWeightThrough). Each operation is four bytes:
// opcode (odd: delete a live row, picked by the key byte), key, weight, term.
func FuzzLevelTree(f *testing.F) {
	f.Add([]byte{0, 0, 10, 3, 9, 0, 20, 7, 200, 0, 10, 1, 5, 1, 0, 0, 0})
	f.Add([]byte{2, 0, 10, 3, 9, 0, 12, 7, 200, 0, 11, 1, 5, 1, 1, 0, 0, 0, 12, 2, 2})
	f.Add([]byte{1, 0, 250, 13, 90, 0, 4, 70, 2, 2, 250, 1, 51, 1, 0, 0, 0, 0, 9, 9, 9})
	f.Add([]byte{3, 0, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 3, 1, 0, 0, 0, 1, 5, 5, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arbitrary, strict := data[0]&1 != 0, data[0]&2 != 0
		by := SteerWeightThrough
		if strict {
			by = SteerWeightBefore
		}
		lt := NewLevelTree()
		parent := &parentLevels{strict: strict, byKey: treemap.New(), cnt: New(), term: New()}
		var model []level
		var live [][3]float64 // (key, weight, term) of each live row
		const maxOps = 96
		for i := 1; i+3 < len(data) && i/4 < maxOps; i += 4 {
			var k, w, term, x float64
			if data[i]%2 == 1 && len(live) > 0 {
				j := int(data[i+1]) % len(live)
				k, w, term, x = live[j][0], live[j][1], live[j][2], -1
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				k = float64(int8(data[i+1])%24) / 4
				w = float64(data[i+2]%16+1) / 4
				term = float64(int8(data[i+3])) / 8
				if arbitrary {
					k = float64(int8(data[i+1])%24) * 0.37
					w = float64(data[i+2]%50+1)*0.1 + 0.013
					term = float64(int8(data[i+3])) * 0.31
				}
				x = 1
				live = append(live, [3]float64{k, w, term})
			}
			lt.Add(k, x*w, x, x*term)
			model = modelAdd(model, k, x*w, x, x*term)
			if !arbitrary {
				parent.add(k, x*w, x, x*term)
			}
			checkLevelTree(t, i/4, lt, model, by, strict)
			if !arbitrary {
				checkAgainstParent(t, i/4, lt, parent, by)
			}
		}
	})
}

// levelsOf lists lt's levels in key order.
func levelsOf(lt *LevelTree) []level {
	var out []level
	var walk func(i int32)
	walk = func(i int32) {
		if i < 0 {
			return
		}
		n := &lt.nodes[i]
		walk(n.left)
		out = append(out, level{k: n.key, w: n.val[laneW], c: n.val[laneC], t: n.val[laneT]})
		walk(n.right)
	}
	walk(lt.root)
	return out
}

func modelAdd(model []level, k, dw, dc, dt float64) []level {
	j := sort.Search(len(model), func(j int) bool { return model[j].k >= k })
	if j == len(model) || model[j].k != k {
		model = append(model, level{})
		copy(model[j+1:], model[j:])
		model[j] = level{k: k}
	}
	m := &model[j]
	m.w, m.c, m.t, m.abs = m.w+dw, m.c+dc, m.t+dt, m.abs+math.Abs(dt)
	if m.c == 0 {
		model = append(model[:j], model[j+1:]...)
	}
	return model
}

// checkLevelTree is FuzzLevelTree's model check.
func checkLevelTree(t *testing.T, op int, lt *LevelTree, model []level, by Steer, strict bool) {
	t.Helper()
	if err := lt.Validate(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	if lt.Len() != len(model) {
		t.Fatalf("op %d: %d levels, model %d", op, lt.Len(), len(model))
	}
	for j, l := range levelsOf(lt) {
		m := model[j]
		if !sameBits(l.k, m.k) || !sameBits(l.w, m.w) || !sameBits(l.c, m.c) || !sameBits(l.t, m.t) {
			t.Fatalf("op %d: level %d is (%v, %v, %v, %v), model (%v, %v, %v, %v)", op, j, l.k, l.w, l.c, l.t, m.k, m.w, m.c, m.t)
		}
	}

	// Reads against the model: by key at and beside every key, by weight
	// strictly between positions. Bounds are gathered ascending for the
	// shared descent.
	var keyBounds, positions []float64
	var pos, scale float64
	for _, m := range model {
		keyBounds = append(keyBounds, m.k-0.125, m.k)
		if strict {
			positions = append(positions, pos)
		}
		pos += m.w
		scale += m.abs
		if !strict {
			positions = append(positions, pos)
		}
	}
	weightBounds := []float64{-1, pos + 1}
	for i := 1; i < len(positions); i++ {
		weightBounds = append(weightBounds, (positions[i-1]+positions[i])/2)
	}
	sort.Float64s(weightBounds)
	keyBounds = append(keyBounds, math.MaxFloat64)
	want := func(b float64, byKey bool) (c, s float64) {
		var p float64
		for _, m := range model {
			q := m.k
			if !byKey {
				q = p + m.w
				if strict {
					q = p
				}
			}
			if b < q || (b == q && strict) {
				break
			}
			p += m.w
			c += m.c
			s += m.t
		}
		return c, s
	}
	for _, tc := range []struct {
		by     Steer
		bounds []float64
	}{{SteerKey, keyBounds}, {by, weightBounds}} {
		cnt, sum := make([]float64, len(tc.bounds)), make([]float64, len(tc.bounds))
		lt.Prefixes(tc.by, tc.bounds, strict, cnt, sum)
		for i, b := range tc.bounds {
			c, s := lt.Prefix(tc.by, b, strict)
			if !sameBits(c, cnt[i]) || !sameBits(s, sum[i]) {
				t.Fatalf("op %d: steer %d Prefixes[%d] at %v = (%v, %v), Prefix (%v, %v)", op, tc.by, i, b, cnt[i], sum[i], c, s)
			}
			wc, ws := want(b, tc.by == SteerKey)
			if c != wc || !near(s, ws, scale) {
				t.Fatalf("op %d: steer %d Prefix(%v) = (%v, %v), model (%v, %v)", op, tc.by, b, c, s, wc, ws)
			}
		}
	}

	var buf bytes.Buffer
	if err := lt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeLevelTree(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("op %d: decode: %v", op, err)
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("op %d: decoded tree re-encodes to different bytes", op)
	}
}

// checkAgainstParent holds every weight-steered read to the parent's RPAI,
// bit for bit: at each of its keys, a little beside them, and past both ends.
func checkAgainstParent(t *testing.T, op int, lt *LevelTree, p *parentLevels, by Steer) {
	t.Helper()
	if p.cnt.Len() != lt.Len() || p.term.Len() != lt.Len() || p.byKey.Len() != lt.Len() {
		t.Fatalf("op %d: %d levels, parent index %d/%d, parent weight map %d", op, lt.Len(), p.cnt.Len(), p.term.Len(), p.byKey.Len())
	}
	tw, tc, ts := lt.Total()
	if !sameBits(tc, p.cnt.Total()) || !sameBits(ts, p.term.Total()) || !sameBits(tw, p.byKey.Total()) {
		t.Fatalf("op %d: totals (%v, %v, %v), parent (%v, %v, %v)", op, tw, tc, ts, p.byKey.Total(), p.cnt.Total(), p.term.Total())
	}
	bounds := []float64{-1}
	for _, k := range p.cnt.Keys() {
		bounds = append(bounds, k-0.125, k, k+0.0625)
	}
	bounds = append(bounds, tw+1)
	for _, strict := range []bool{false, true} {
		cnt, sum := make([]float64, len(bounds)), make([]float64, len(bounds))
		lt.Prefixes(by, bounds, strict, cnt, sum)
		for i, b := range bounds {
			wc, ws := p.cnt.prefix(b, strict), p.term.prefix(b, strict)
			if c, s := lt.Prefix(by, b, strict); !sameBits(c, wc) || !sameBits(s, ws) ||
				!sameBits(cnt[i], wc) || !sameBits(sum[i], ws) {
				t.Fatalf("op %d: strict=%v read at %v = (%v, %v), shared (%v, %v), parent RPAI (%v, %v)",
					op, strict, b, c, s, cnt[i], sum[i], wc, ws)
			}
		}
	}
}

// TestDecodeLevelTreeRejectsCorruption flips, truncates and rewrites a valid
// stream: every variant must fail to decode rather than restore a tree that
// breaks an invariant.
func TestDecodeLevelTreeRejectsCorruption(t *testing.T) {
	lt := NewLevelTree()
	for i := 0; i < 40; i++ {
		lt.Add(float64(i*7%40), 1.5, 1, float64(i)/8)
	}
	var buf bytes.Buffer
	if err := lt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := DecodeLevelTree(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, bad := range map[string][]byte{
		"magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"version":   mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"count":     mutate(func(b []byte) []byte { b[8]++; return b }),
		"truncated": good[:len(good)-5],
		"order": mutate(func(b []byte) []byte { // the root's key pushed past every other
			copy(b[13:21], []byte{0, 0, 0, 0, 0, 0, 0x59, 0x40})
			return b
		}),
		"colour":     mutate(func(b []byte) []byte { b[12] |= flagRed; return b }),
		"zero count": mutate(func(b []byte) []byte { copy(b[29:37], make([]byte, 8)); return b }),
	} {
		if _, err := DecodeLevelTree(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupted stream accepted", name)
		}
	}
}
