package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rpai/internal/catalog"
	"rpai/internal/engine"
)

// goldenAnswers is the committed form of a workload's default-seed answers at
// test scale: every scalar, and a digest of every grouped result's bits.
type goldenAnswers struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Events   int       `json:"events"`
	Scalars  []float64 `json:"scalars"`
	Groups   string    `json:"groups_sha256"`
}

func digestGroups(a Answers) string {
	h := sha256.New()
	var b [8]byte
	for _, gr := range a.Grouped {
		for _, g := range gr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(g.Key[0]))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(g.Value))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// catalogAnswers reads every registration's answers from an in-process catalog.
func catalogAnswers(t *testing.T, cat *catalog.Service, n int) Answers {
	t.Helper()
	var a Answers
	for id := 1; id <= n; id++ {
		s, err := cat.Result(catalog.QueryID(id))
		if err != nil {
			t.Fatal(err)
		}
		g, err := cat.ResultGrouped(catalog.QueryID(id))
		if err != nil {
			t.Fatal(err)
		}
		a.Scalar = append(a.Scalar, s)
		a.Grouped = append(a.Grouped, g)
	}
	return a
}

// TestOracleMatchesEngineCatalogAndGolden drives a 1/100-scale copy of every
// workload, at the default seed, through bare engine executors (the -verify
// replay) and an in-process catalog, and requires the independent oracle to
// agree with both bit for bit — and with the answers committed under golden/,
// so a change to the generator, the queries or the oracle cannot pass
// unnoticed.
func TestOracleMatchesEngineCatalogAndGolden(t *testing.T) {
	for _, w := range workloads() {
		w := w.scaled(100)
		t.Run(w.Name, func(t *testing.T) {
			g := NewGen(w, 1)
			rep, err := NewReplay(w.Queries)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()
			for _, q := range w.Queries {
				if _, _, err := cat.Register(q.SQL()); err != nil {
					t.Fatalf("register %q: %v", q.SQL(), err)
				}
			}
			events := 0
			var batch []engine.Event
			flush := func() {
				if len(batch) > 0 {
					if err := cat.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
					batch = nil
				}
			}
			feed := func(e Event) {
				events++
				if err := rep.Apply(e); err != nil {
					t.Fatal(err)
				}
				if batch = append(batch, e.boxed()); len(batch) == 100 {
					flush()
				}
			}
			for i := 0; i < w.Preload; i++ {
				feed(g.Insert())
			}
			for i := 0; i < 3*w.Preload; i++ {
				feed(g.Next())
				if i%50 == 0 {
					feed(g.Marker())
				}
			}
			flush()
			if err := cat.DrainAll(); err != nil {
				t.Fatal(err)
			}
			want := g.ExpectAll()
			if bad, first := want.diff(rep.Answers(want)); bad > 0 {
				t.Errorf("oracle vs bare engine: %d queries differ: %s", bad, first)
			}
			if bad, first := want.diff(catalogAnswers(t, cat, len(w.Queries))); bad > 0 {
				t.Errorf("oracle vs catalog: %d queries differ: %s", bad, first)
			}
			marker := want.Grouped[0][len(want.Grouped[0])-1]
			if g.markers == 0 || marker.Key[0] != float64(g.MarkerSym()) || marker.Value != float64(g.markers) {
				t.Errorf("marker partition reads %v, want key %d value %d", marker, g.MarkerSym(), g.markers)
			}

			got := goldenAnswers{Workload: w.Name, Seed: 1, Events: events, Scalars: want.Scalar, Groups: digestGroups(want)}
			path := filepath.Join("golden", w.Name+".json")
			if *update {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var committed goldenAnswers
			if err := json.Unmarshal(b, &committed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, committed) {
				t.Errorf("answers differ from %s (rerun with -update only if the workload was meant to change)\n got %+v\nwant %+v", path, got, committed)
			}
		})
	}
}
