package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ and golden/")

// TestSummariseGolden runs the summariser over a small hand-written span
// file. In it the "paced" root lasts 10 ms; its children cover [1,4], [6,7]
// and [8,9.5] ms (two batches overlap, and the marker lies inside them), so
// its self time is 4.5 ms. The ladder has three rungs at 400, 1000 and
// 2000 ns/event, the last including a 1 ms barrier span with no events.
func TestSummariseGolden(t *testing.T) {
	var out bytes.Buffer
	if err := summariseFile(&out, filepath.Join("testdata", "spans.json")); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("summary differs from %s:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}

func TestSummariseSelfTime(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range summarise(spans) {
		switch s.Name {
		case "paced":
			if s.SelfNS != 4_500_000 || s.TotalNS != 10_000_000 {
				t.Errorf("paced total %d self %d, want 10000000 4500000", s.TotalNS, s.SelfNS)
			}
		case "batch":
			if s.Count != 3 || s.Events != 300 || s.SelfNS != 5_000_000 {
				t.Errorf("batch %+v, want 3 spans, 300 events, 5 ms self", s)
			}
		}
	}
	rungs := ladderCosts(summarise(spans))
	if len(rungs) != 3 || rungs[0].Rung != "aggindex" || rungs[2].Rung != "serve" {
		t.Fatalf("ladder rungs %+v, want aggindex, engine, serve", rungs)
	}
	if rungs[1].NSPerEvent != 1000 || rungs[1].SelfNS != 600 || rungs[2].NSPerEvent != 2000 || rungs[2].SelfNS != 1000 {
		t.Errorf("rung costs %+v", rungs)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.open("phase", -1)
	t0 := time.Now()
	tr.add("batch", t0, t0.Add(time.Millisecond), root, 7, 256)
	tr.close(root, 256)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Batch != 7 || spans[1].End-spans[1].Start != 1_000_000 {
		t.Errorf("spans read back as %+v", spans)
	}
	var nilTracer *tracer
	if nilTracer.add("x", t0, t0, -1, 0, 0) != -1 || nilTracer.open("x", -1) != -1 {
		t.Error("a nil tracer handed out span indexes")
	}
	nilTracer.close(0, 0)
}
