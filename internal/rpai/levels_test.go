package rpai

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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
		n := lt.at(i)
		walk(lt.child(i, false))
		out = append(out, level{k: n.key, w: n.val[laneW], c: n.val[laneC], t: n.val[laneT]})
		walk(lt.child(i, true))
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
		"colour":       mutate(func(b []byte) []byte { b[12] |= flagRed; return b }),
		"zero count":   mutate(func(b []byte) []byte { copy(b[29:37], make([]byte, 8)); return b }),
		"red-red":      encodeLevels(t, "10B(5R(3R,-),15R)"),
		"black height": encodeLevels(t, "10B(5B,-)"),
	} {
		if _, err := DecodeLevelTree(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupted stream accepted", name)
		}
	}
}

// buildLevels builds a level tree of the given shape without balancing it.
// A shape is a key, a colour (B or R) and, when the node has a child, the
// two subtrees in parentheses, "-" standing for an absent one:
// "10B(5R,15R)". Each level holds one row whose weight and term derive from
// its key. mirror negates every key, which swaps every left and right.
func buildLevels(t *testing.T, shape string, mirror bool) *LevelTree {
	t.Helper()
	lt := NewLevelTree()
	rest := shape
	var node func() int32
	node = func() int32 {
		if strings.HasPrefix(rest, "-") {
			rest = rest[1:]
			return nilIdx
		}
		end := strings.IndexAny(rest, "BR")
		if end < 0 {
			t.Fatalf("shape %q: no colour after %q", shape, rest)
		}
		k, err := strconv.ParseFloat(rest[:end], 64)
		if err != nil {
			t.Fatalf("shape %q: %v", shape, err)
		}
		red := rest[end] == 'R'
		rest = rest[end+1:]
		if mirror {
			k = -k
		}
		w, term := levelRow(k)
		i := lt.alloc(k, [3]float64{w, 1, term})
		lt.setRed(i, red)
		if strings.HasPrefix(rest, "(") {
			rest = rest[1:]
			l := node()
			rest = strings.TrimPrefix(rest, ",")
			r := node()
			rest = strings.TrimPrefix(rest, ")")
			if mirror {
				l, r = r, l
			}
			lt.setChild(i, false, l)
			lt.setChild(i, true, r)
		}
		lt.update(i)
		return i
	}
	if shape != "" {
		lt.root = node()
	}
	if rest != "" {
		t.Fatalf("shape %q: trailing %q", shape, rest)
	}
	return lt
}

// levelRow is the weight and term of buildLevels' row at key k.
func levelRow(k float64) (w, term float64) { return 0.1*math.Abs(k) + 0.3, 0.7 * k }

// shapeOf writes lt's shape in buildLevels' notation, undoing mirror.
func shapeOf(lt *LevelTree, mirror bool) string {
	var sb strings.Builder
	var walk func(i int32)
	walk = func(i int32) {
		if i < 0 {
			sb.WriteByte('-')
			return
		}
		k, l, r := lt.at(i).key, lt.child(i, false), lt.child(i, true)
		if mirror {
			k, l, r = -k, r, l
		}
		sb.WriteString(strconv.FormatFloat(k, 'g', -1, 64))
		if lt.isRed(i) {
			sb.WriteByte('R')
		} else {
			sb.WriteByte('B')
		}
		if l >= 0 || r >= 0 {
			sb.WriteByte('(')
			walk(l)
			sb.WriteByte(',')
			walk(r)
			sb.WriteByte(')')
		}
	}
	if lt.root >= 0 {
		walk(lt.root)
	}
	return sb.String()
}

// encodeLevels is the snapshot stream of a buildLevels shape, which need not
// be a valid tree.
func encodeLevels(t *testing.T, shape string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := buildLevels(t, shape, false).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLevelTreeRebalanceCases drives every red-black fix-up case from a tree
// built to reach it, in both orientations, and holds the result to the
// shape and colours that case produces — so each case is known to have run
// — with Validate (shape, colours, cached sums bit for bit) after every op.
// A seeded churn then runs the cases in combination at larger sizes.
func TestLevelTreeRebalanceCases(t *testing.T) {
	for _, tc := range []struct {
		name, tree string
		del        bool // delete the level at key, else insert it
		key        float64
		want       string
		oneWay     bool // the successor takeover is not mirror-symmetric
	}{
		{"insert under a black parent", "10B(5B,15B)", false, 3, "10B(5B(3R,-),15B)", false},
		{"insert red uncle", "10B(5R,15R)", false, 3, "10B(5B(3R,-),15B)", false},
		{"insert red uncle below the root", "20B(10B(5R,15R),30B)", false, 3, "20B(10R(5B(3R,-),15B),30B)", false},
		{"insert inner child", "10B(5R,-)", false, 7, "7B(5R,10R)", false},
		{"insert outer child", "10B(5R,-)", false, 3, "5B(3R,10R)", false},
		{"insert inner child below the root", "20B(10B(5R,-),30B)", false, 7, "20B(7B(5R,10R),30B)", false},
		{"insert red uncle then outer rotation", "20B(10R(5B(3R,7R),15B),30B)", false, 2,
			"10B(5R(3B(2R,-),7B),20R(15B,30B))", false},
		{"insert red uncle then inner rotation", "20B(10R(5B,15B(13R,17R)),30B)", false, 18,
			"15B(10R(5B,13B),20R(17B(-,18R),30B))", false},
		{"delete red leaf", "10B(5R,15R)", true, 5, "10B(-,15R)", false},
		{"delete black node with a red child", "10B(5B(3R,-),15B)", true, 5, "10B(3B,15B)", false},
		{"delete red sibling", "10B(5B,20R(15B,25B))", true, 5, "20B(10B(-,15R),25B)", false},
		{"delete black sibling, black nephews, red parent", "20B(10R(5B,15B),30B(25R,35R))", true, 5,
			"20B(10B(-,15R),30B(25R,35R))", false},
		{"delete black sibling, black nephews, black parent", "20B(10B(5B,15B),30B(25B,35B))", true, 5,
			"20B(10B(-,15R),30R(25B,35B))", false},
		{"delete near-red nephew", "10B(5B,20B(15R,-))", true, 5, "15B(10B,20B)", false},
		{"delete far-red nephew", "10B(5B,20B(-,25R))", true, 5, "20B(10B,25B)", false},
		{"delete far-red nephew below the root", "30B(10B(5B,20B(-,25R)),40B(35B,45B))", true, 5,
			"30B(20B(10B,25B),40B(35B,45B))", false},
		{"delete red sibling, then near-red nephew", "10B(5B,30R(20B(15R,-),40B))", true, 5,
			"30B(15R(10B,20B),40B)", false},
		{"delete by successor takeover", "10B(5B,20B(15R,-))", true, 10, "15B(5B,20B)", true},
		{"delete by successor takeover with a fix", "10B(5B,20B)", true, 10, "20B(5R,-)", true},
		{"delete root with one child", "10B(-,15R)", true, 10, "15B", false},
		{"delete the only level", "10B", true, 10, "", false},
	} {
		for _, mirror := range []bool{false, true} {
			if mirror && tc.oneWay {
				continue
			}
			lt := buildLevels(t, tc.tree, mirror)
			if err := lt.Validate(); err != nil {
				t.Fatalf("%s (mirror %v): the starting tree: %v", tc.name, mirror, err)
			}
			k := tc.key
			if mirror {
				k = -k
			}
			w, term := levelRow(k)
			if tc.del {
				// Every level holds one row: take it out.
				lt.Add(k, -w, -1, -term)
			} else {
				lt.Add(k, w, 1, term)
			}
			if err := lt.Validate(); err != nil {
				t.Fatalf("%s (mirror %v): %v", tc.name, mirror, err)
			}
			if got := shapeOf(lt, mirror); got != tc.want {
				t.Errorf("%s (mirror %v): %s -> %s, want %s", tc.name, mirror, tc.tree, got, tc.want)
			}
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lt := NewLevelTree()
		var model []level
		var live [][3]float64
		for op := 0; op < 4000; op++ {
			x := 1.0
			var r [3]float64
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				r, x = live[j], -1
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				r = [3]float64{float64(rng.Intn(600)) * 0.37, float64(rng.Intn(50)+1)*0.1 + 0.013, float64(rng.Intn(99)-49) * 0.31}
				live = append(live, r)
			}
			lt.Add(r[0], x*r[1], x, x*r[2])
			model = modelAdd(model, r[0], x*r[1], x, x*r[2])
			if err := lt.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if lt.Len() != len(model) {
				t.Fatalf("seed %d op %d: %d levels, model %d", seed, op, lt.Len(), len(model))
			}
		}
		for j, l := range levelsOf(lt) {
			if m := model[j]; !sameBits(l.k, m.k) || !sameBits(l.w, m.w) || !sameBits(l.c, m.c) || !sameBits(l.t, m.t) {
				t.Fatalf("seed %d: level %d is (%v, %v, %v, %v), model (%v, %v, %v, %v)", seed, j, l.k, l.w, l.c, l.t, m.k, m.w, m.c, m.t)
			}
		}
	}
}

// TestDecodeRefusesDeepStreams feeds both decoders a 100-node left chain.
// No valid tree is that deep, and the decoders must say so before they
// recurse past maxPathLen rather than after Validate sees the shape.
func TestDecodeRefusesDeepStreams(t *testing.T) {
	const n = 100
	chain := func(magic string, nodeLen int) []byte {
		b := make([]byte, 12, 12+n*nodeLen)
		copy(b, magic)
		binary.LittleEndian.PutUint32(b[4:], 1)
		binary.LittleEndian.PutUint32(b[8:], n)
		for i := 0; i < n; i++ {
			node := make([]byte, nodeLen)
			if i < n-1 {
				node[0] = flagLeft
			}
			binary.LittleEndian.PutUint64(node[1:], math.Float64bits(float64(n-i)))
			binary.LittleEndian.PutUint64(node[9:], math.Float64bits(1))
			b = append(b, node...)
		}
		return b
	}
	if _, err := DecodeLevelTree(bytes.NewReader(chain(levelsMagic, 33))); err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Errorf("DecodeLevelTree of a %d-node chain: %v", n, err)
	}
	if _, err := Decode(bytes.NewReader(chain(encodeMagic, 17))); err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Errorf("Decode of a %d-node chain: %v", n, err)
	}
}

// goldenLevelOps is the fixed insert/delete sequence behind
// testdata/golden.rlvl: rows with inexact weights and terms over 257 keys,
// every third step retiring a live row, so levels empty and are deleted.
func goldenLevelOps(lt *LevelTree) {
	var rows [][3]float64
	for i := 0; i < 900; i++ {
		r := [3]float64{0.25 * float64(i*37%257), 0.1*float64(i%11) + 0.1, 0.3*float64(i%7) - 0.5}
		rows = append(rows, r)
		lt.Add(r[0], r[1], 1, r[2])
		if i%3 == 2 {
			j := i * 131 % len(rows)
			r = rows[j]
			rows[j] = rows[len(rows)-1]
			rows = rows[:len(rows)-1]
			lt.Add(r[0], -r[1], -1, -r[2])
		}
	}
}

// TestDecodeGoldenLevelTree pins the level-tree snapshot format and the
// trees already written in it. testdata/golden.rlvl was written after
// goldenLevelOps by the left-leaning red-black balancing the level tree used
// before; the tree it holds must decode, re-encode to the same bytes, answer
// the recorded reads bit for bit, and keep working under today's balancing.
func TestDecodeGoldenLevelTree(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.rlvl"))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := DecodeLevelTree(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := lt.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), golden) {
		t.Fatal("the restored golden level tree re-encodes to different bytes")
	}
	if lt.Len() != 254 {
		t.Fatalf("golden level tree holds %d levels, want 254", lt.Len())
	}
	w, c, s := lt.Total()
	if math.Float64bits(w) != 0x4076a33333333333 || c != 600 || math.Float64bits(s) != 0x406eefffffffffff {
		t.Fatalf("Total() = (%v, %v, %v), want the recorded (362.2, 600, 247.49999999999997)", w, c, s)
	}
	for _, r := range []struct {
		by     Steer
		bound  float64
		strict bool
		cnt    float64
		sum    uint64
	}{
		{SteerKey, 10.3, false, 96, 0x4045bfffffffffff},
		{SteerKey, 32, true, 294, 0x40618ccccccccccc},
		{SteerKey, 32, false, 296, 0x40619ccccccccccc},
		{SteerKey, 60.25, false, 563, 0x406d933333333333},
		{SteerWeightThrough, 17.5, false, 28, 0x4028cccccccccccb},
		{SteerWeightThrough, 170, false, 281, 0x4061033333333333},
		{SteerWeightThrough, 333.3, true, 552, 0x406d0fffffffffff},
		{SteerWeightBefore, 0.7, true, 3, 0x3ffccccccccccccc},
		{SteerWeightBefore, 123.4, true, 212, 0x4059c66666666666},
		{SteerWeightBefore, 301, false, 503, 0x406b199999999999},
	} {
		if c, s := lt.Prefix(r.by, r.bound, r.strict); c != r.cnt || math.Float64bits(s) != r.sum {
			t.Errorf("Prefix(%d, %v, %v) = (%v, %#x), recorded (%v, %#x)", r.by, r.bound, r.strict, c, math.Float64bits(s), r.cnt, r.sum)
		}
	}
	// The restored tree keeps working: replay the ops on top of it.
	goldenLevelOps(lt)
	if err := lt.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, c, _ := lt.Total(); c != 1200 {
		t.Fatalf("after a second replay the tree counts %v rows, want 1200", c)
	}
}

// TestLevelTreeNodeLayout holds a level to one cache line: a 64-byte node in
// a slab whose first node starts on a 64-byte boundary, so no node straddles
// two lines. It checks the slab after every growth from 1 to 4 096 levels and
// after both decoders, at every size a decoder allocates up to 600 levels and
// at two sizes past the allocator's small-object classes.
func TestLevelTreeNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(lnode{}); got != 64 {
		t.Fatalf("a level takes %d bytes, want 64", got)
	}
	aligned := func(what string, lt *LevelTree) {
		t.Helper()
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(lt.nodes))); p%64 != 0 {
			t.Fatalf("%s: slab of %d levels at %#x is not 64-byte aligned", what, cap(lt.nodes), p)
		}
	}
	lt := NewLevelTree()
	for k := 1; k <= 4096; k++ {
		grown := cap(lt.nodes)
		lt.Add(float64(k), 1, 1, 1)
		if cap(lt.nodes) != grown {
			aligned("growth to "+strconv.Itoa(k)+" levels", lt)
		}
	}
	sizes := []int{4096, 20000}
	for n := 1; n <= 600; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		cols, weights := make([]float64, n), make([]float64, n)
		lane := New()
		for i := range cols {
			cols[i], weights[i] = float64(i), 1
			lane.Add(float64(i), 1)
		}
		var levels, lanes bytes.Buffer
		if err := lane.Encode(&lanes); err != nil {
			t.Fatal(err)
		}
		src := NewLevelTree()
		for _, k := range cols {
			src.Add(k, 1, 1, k)
		}
		if err := src.Encode(&levels); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeLevelTree(&levels)
		if err != nil {
			t.Fatal(err)
		}
		aligned("DecodeLevelTree of "+strconv.Itoa(n)+" levels", back)
		conv, err := DecodeParentLevels(bytes.NewReader(lanes.Bytes()), bytes.NewReader(lanes.Bytes()), cols, weights)
		if err != nil {
			t.Fatal(err)
		}
		aligned("DecodeParentLevels of "+strconv.Itoa(n)+" levels", conv)
	}
}

// TestValidateComparesTotalBits plants a -0 total where update computes +0:
// equal as floats, different bits, so a read adding it could come out with a
// different sign. Validate must report it stale.
func TestValidateComparesTotalBits(t *testing.T) {
	lt := buildLevels(t, "10B(0R,-)", false)
	if err := lt.Validate(); err != nil {
		t.Fatal(err)
	}
	leaf := lt.child(lt.root, false)
	n := lt.at(leaf)
	if n.key != 0 || math.Float64bits(n.total[laneT]) != 0 {
		t.Fatalf("the leaf at key %v totals %v in its term lane, want +0 at key 0", n.key, n.total[laneT])
	}
	n.total[laneT] = math.Copysign(0, -1)
	if err := lt.Validate(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("a -0 total where update makes +0: Validate says %v", err)
	}
}
