package main

import (
	"io"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs the whole harness — build, child daemon, tick and
// calibrator children, every phase, every answer check — on a 1/100-scale copy
// of each workload for two seconds. It is skipped under -short because it
// compiles and starts processes.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	work := t.TempDir()
	for _, w := range workloads() {
		w := w.scaled(100)
		t.Run(w.Name, func(t *testing.T) {
			rc := runConfig{W: w, Seed: 1, Seconds: 2, BenchDir: ".", WorkDir: work, Reps: 1,
				TraceOut: filepath.Join(work, "trace-"+w.Name+".json")}
			res, err := runStack(rc, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
			}
			if len(res.E2E) != 5 {
				t.Errorf("%d end-to-end metrics, want 5: %+v", len(res.E2E), res.E2E)
			}
			for _, m := range res.E2E {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, m.Value)
				}
			}
		})
	}
}
