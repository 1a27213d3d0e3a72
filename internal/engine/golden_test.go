package engine

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rpai/internal/query"
)

// The golden snapshots under testdata/snapshots pin the general algorithm's
// and the PAI executor's snapshot bytes and read results. Each shape has a
// snapshot after goldenSplit events of goldenTrace, one after the whole
// trace, and a .bits file recording Result (and ResultGrouped) at both
// points. The trace is integer-valued, so every sum is exact and the bits do
// not depend on the order an index adds its levels in: a change of index
// structure must reproduce them exactly, along with the level sets the
// snapshots list (which levels exist, which are dropped, and when).
//
// Regenerate with WRITE_GOLDEN_SNAPSHOTS=1 go test -run TestGoldenSnapshots
// ./internal/engine — only when the snapshot format changes on purpose.

const (
	goldenEvents = 600
	goldenSplit  = 400
)

// sq1Spec is SQ1 (section 5.2.1): both sides of the predicate correlated.
// SUM(price*volume) WHERE 0.75*SUM(volume | volume<=volume) < SUM(volume | price<=price).
func sq1Spec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("volume"), Op: query.Le, Outer: query.Col("volume")},
			}),
			Op: query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// countAvgSpec correlates a COUNT and an AVG through the strict and the
// reversed comparisons:
// SUM(volume) WHERE COUNT(* | price<price) <= 3*AVG(volume | price>=price)
// AND 0.25*SUM(volume | volume>volume) < COUNT(*).
func countAvgSpec() *query.Query {
	return &query.Query{
		Agg: query.Col("volume"),
		Preds: []query.Predicate{
			{
				Left: query.ValSub(1, &query.Subquery{
					Kind:  query.Count,
					Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Lt, Outer: query.Col("price")},
				}),
				Op: query.Le,
				Right: query.ValSub(3, &query.Subquery{
					Kind:  query.Avg,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Ge, Outer: query.Col("price")},
				}),
			},
			{
				Left: query.ValSub(0.25, &query.Subquery{
					Kind:  query.Sum,
					Of:    query.Col("volume"),
					Where: &query.CorrPred{Inner: query.Col("volume"), Op: query.Gt, Outer: query.Col("volume")},
				}),
				Op:    query.Lt,
				Right: query.ValSub(1, &query.Subquery{Kind: query.Count}),
			},
		},
	}
}

// goldenShape is one pinned executor: a query and the constructor whose
// executor the fixture snapshots.
type goldenShape struct {
	name  string
	query func() *query.Query
	build func(*query.Query) (Executor, error)
}

func newGeneralExecutor(q *query.Query) (Executor, error) { return NewGeneral(q) }

// The paper's SQ2, NQ1 and NQ2 thresholds (0.75 of the total volume) are
// never met on this trace's price range, and EQ1's equality rarely is, so
// the fixtures lower the scales and add an EQ1 whose outer comparison is <:
// every shape but eq1 reads a non-zero result.
var goldenShapes = []goldenShape{
	{"sq1", sq1Spec, newGeneralExecutor},
	{"sq2", func() *query.Query { return withLeftScale(sq2Spec(), 0.25) }, newGeneralExecutor},
	{"count-avg", countAvgSpec, newGeneralExecutor},
	{"nq1", func() *query.Query { return withLeftScale(nq1Spec(), 0.25) }, newGeneralExecutor},
	{"nq2", func() *query.Query { return withLeftScale(nq2Spec(), 0.25) }, newGeneralExecutor},
	{"grouped", groupedVWAPSpec, newGeneralExecutor},
	{"eq1", eq1Spec, New},
	{"eq1-lt", eq1LtSpec, New},
	{"eq1-lt-general", eq1LtSpec, newGeneralExecutor},
}

// withLeftScale sets the scale of q's first predicate's left side.
func withLeftScale(q *query.Query, scale float64) *query.Query {
	q.Preds[0].Left.Scale = scale
	return q
}

// eq1LtSpec is EQ1 with the outer comparison made strict:
// SUM(A*B) WHERE 0.09*SUM(B) < SUM(B | A=A).
func eq1LtSpec() *query.Query {
	q := withLeftScale(eq1Spec(), 0.09)
	q.Preds[0].Op = query.Lt
	return q
}

// goldenTrace is the fixed integer-valued insert/delete trace the fixtures
// were written from. Deletes retract live tuples only.
func goldenTrace() []Event {
	rng := rand.New(rand.NewSource(37))
	var live []query.Tuple
	events := make([]Event, 0, goldenEvents)
	for len(events) < goldenEvents {
		if len(live) > 0 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			events = append(events, Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"price":  float64(rng.Intn(40) + 1),
			"volume": float64(rng.Intn(30) + 1),
			"a":      float64(rng.Intn(10) + 1),
			"b":      float64(rng.Intn(8) + 1),
			"broker": float64(rng.Intn(5) + 1),
		}
		live = append(live, t)
		events = append(events, Insert(t))
	}
	return events
}

// goldenBits renders an executor's reads at one point: its Result bits and,
// for a grouped query, one line per group.
func goldenBits(point string, ex Executor) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s result %016x\n", point, math.Float64bits(ex.Result()))
	if g, ok := ex.(GroupedExecutor); ok {
		for _, gr := range g.ResultGrouped() {
			fmt.Fprintf(&b, "%s group", point)
			for _, k := range gr.Key {
				fmt.Fprintf(&b, " %s", strconv.FormatFloat(k, 'g', -1, 64))
			}
			fmt.Fprintf(&b, " %016x\n", math.Float64bits(gr.Value))
		}
	}
	return b.String()
}

// TestGoldenSnapshots restores each shape's prefix snapshot, requires it to
// re-encode byte for byte and read the recorded bits, replays the rest of the
// trace and requires the final snapshot and bits to equal the recorded ones.
func TestGoldenSnapshots(t *testing.T) {
	events := goldenTrace()
	dir := filepath.Join("testdata", "snapshots")
	write := os.Getenv("WRITE_GOLDEN_SNAPSHOTS") != ""
	for _, sh := range goldenShapes {
		t.Run(sh.name, func(t *testing.T) {
			q := sh.query()
			prefixPath := filepath.Join(dir, sh.name+"-prefix.snap")
			suffixPath := filepath.Join(dir, sh.name+"-suffix.snap")
			bitsPath := filepath.Join(dir, sh.name+".bits")
			if write {
				ex, err := sh.build(q)
				if err != nil {
					t.Fatal(err)
				}
				ApplyAll(ex, events[:goldenSplit])
				prefix, bits := snapshotBytes(t, ex), goldenBits("prefix", ex)
				ApplyAll(ex, events[goldenSplit:])
				bits += goldenBits("suffix", ex)
				for path, data := range map[string][]byte{prefixPath: prefix, suffixPath: snapshotBytes(t, ex), bitsPath: []byte(bits)} {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			prefix, err := os.ReadFile(prefixPath)
			if err != nil {
				t.Fatal(err)
			}
			suffix, err := os.ReadFile(suffixPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(bitsPath)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := Restore(q, bytes.NewReader(prefix))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if fresh, err := sh.build(q); err != nil || ex.Strategy() != fresh.Strategy() {
				t.Fatalf("restored strategy %q, the shape builds %v (%v)", ex.Strategy(), fresh, err)
			}
			if got := snapshotBytes(t, ex); !bytes.Equal(got, prefix) {
				t.Fatalf("prefix snapshot does not re-encode byte for byte (%d vs %d bytes)", len(got), len(prefix))
			}
			bits := goldenBits("prefix", ex)
			ApplyAll(ex, events[goldenSplit:])
			if got := snapshotBytes(t, ex); !bytes.Equal(got, suffix) {
				t.Fatalf("snapshot after the suffix differs from %s (%d vs %d bytes)", suffixPath, len(got), len(suffix))
			}
			bits += goldenBits("suffix", ex)
			if bits != string(want) {
				t.Fatalf("reads differ from %s:\n%s", bitsPath, lineDiff(bits, string(want)))
			}
		})
	}
}

// lineDiff lists the lines of got and want that differ.
func lineDiff(got, want string) string {
	g, w := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(want))
	var b strings.Builder
	for {
		gok, wok := g.Scan(), w.Scan()
		if !gok && !wok {
			return b.String()
		}
		if g.Text() != w.Text() {
			fmt.Fprintf(&b, "got  %q\nwant %q\n", g.Text(), w.Text())
		}
	}
}
