// Package fuzzwatch bounds the run time of one fuzz input. A fuzz target
// that starts goroutines can wedge on an input — a lost wake-up, a drain
// that never returns — and Go's fuzzing engine has no per-input timeout: the
// worker stalls, the exec counter freezes, and the run still ends in PASS
// when -fuzztime expires. A target arms Start at the top of each input
// instead; an input still running at the deadline panics with every
// goroutine's stack, which fails the input and records it.
package fuzzwatch

import (
	"fmt"
	"runtime"
	"time"
)

// Deadline is how long one input may run: far above any input's normal run
// time (milliseconds, seconds under -race), and below what a stalled run
// would go unnoticed for.
const Deadline = 30 * time.Second

// Start arms the watchdog for one input and returns the function that
// disarms it; call it with defer. If the input has not finished after d, the
// process panics with every goroutine's stack.
func Start(d time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			buf := make([]byte, 1<<20)
			for {
				n := runtime.Stack(buf, true)
				if n < len(buf) {
					buf = buf[:n]
					break
				}
				buf = make([]byte, 2*len(buf))
			}
			panic(fmt.Sprintf("fuzzwatch: input still running after %v; every goroutine:\n\n%s", d, buf))
		}
	}()
	return func() { close(done) }
}
