package fuzzwatch

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestStartDisarmed checks that an input finishing in time leaves nothing
// behind to fire.
func TestStartDisarmed(t *testing.T) {
	stop := Start(20 * time.Millisecond)
	stop()
	time.Sleep(50 * time.Millisecond)
}

// TestStartFires checks that an input outliving its deadline takes the
// process down with every goroutine's stack, the wedged one included. It
// re-runs itself in a child process, which is the one that panics.
func TestStartFires(t *testing.T) {
	if os.Getenv("FUZZWATCH_CHILD") != "" {
		defer Start(10 * time.Millisecond)()
		wedged := make(chan struct{})
		go func() { <-wedged }()
		time.Sleep(10 * time.Second)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStartFires$")
	cmd.Env = append(os.Environ(), "FUZZWATCH_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; output:\n%s", out)
	}
	for _, want := range []string{"fuzzwatch: input still running after 10ms", "TestStartFires.func1", "goroutine "} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
}
