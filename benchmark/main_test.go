package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// smoke test re-executes it as a tick or calibrator child.
func TestMain(m *testing.M) {
	if runChild() {
		return
	}
	os.Exit(m.Run())
}
