package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// clock is the time source the open-loop scheduler runs on; tests substitute
// a fake one.
type clock interface {
	// Start returns the instant a schedule should begin at: the earliest
	// instant from which the clock can honour SleepUntil(start + k*tick).
	Start() time.Time
	Now() time.Time
	// SleepUntil returns at t or, when the clock cannot, as soon after as it
	// can; the caller measures how late that was.
	SleepUntil(t time.Time)
}

// pacer is the open-loop schedule: ticks fall at start + k*tick, and by tick
// k exactly floor(k*tick*rate) events are due. It never slows down for the
// system under test — a tick that fires late hands out its events late, the
// following ticks fire back to back until the schedule is caught up, and
// every latency is taken from the due time, so the stall is counted in full.
type pacer struct {
	clk   clock
	start time.Time
	tick  time.Duration
	rate  int // events per second
	k     int // ticks fired
	sent  int // events handed out
	late  latencies
}

func newPacer(clk clock, tick time.Duration, rate int) *pacer {
	return &pacer{clk: clk, start: clk.Start(), tick: tick, rate: rate}
}

// dueOf is the instant by which the first n events are due.
func (p *pacer) dueOf(n int) time.Time {
	return p.start.Add(time.Duration(int64(n) * int64(time.Second) / int64(p.rate)))
}

// next waits for the next tick and returns its due time and how many events
// fall due with it. The lateness of the wake-up is recorded.
func (p *pacer) next() (due time.Time, n int) {
	p.k++
	due = p.start.Add(time.Duration(p.k) * p.tick)
	p.clk.SleepUntil(due)
	p.late.add(due, max(p.clk.Now().Sub(due), 0))
	total := int(int64(time.Duration(p.k)*p.tick) * int64(p.rate) / int64(time.Second))
	n = total - p.sent
	p.sent = total
	return due, n
}

// A Go timer cannot drive a 1 ms schedule: an idle Go process waits in
// epoll_wait, whose timeout is whole milliseconds, so time.Sleep overshoots
// by about half a millisecond on average — more than the latencies being
// measured. Wake-ups from a file descriptor have no such rounding. tickClock
// therefore gets its ticks from a child process (this same binary again)
// that sleeps in nanosleep(2) and writes one byte per tick to a pipe; the
// pacer blocks reading the pipe and is woken by the poller within tens of
// microseconds.
type tickClock struct {
	cmd    *exec.Cmd
	pipe   io.ReadCloser
	buf    [256]byte
	period time.Duration
}

// startTickClock starts the tick child and waits for its first tick.
func startTickClock(period time.Duration) (*tickClock, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=tick:"+period.String())
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &tickClock{cmd: cmd, pipe: pipe, period: period}
	if _, err := pipe.Read(c.buf[:1]); err != nil {
		c.stop()
		return nil, fmt.Errorf("tick process: %w", err)
	}
	return c, nil
}

func (c *tickClock) Now() time.Time { return time.Now() }

// Start waits for a fresh tick, so that a schedule starting now has its
// instants a few microseconds after the ticks that wake it.
func (c *tickClock) Start() time.Time {
	c.pipe.Read(c.buf[:]) // ticks queued while nobody was reading
	c.pipe.Read(c.buf[:1])
	return time.Now()
}

// SleepUntil consumes ticks until t is at most a fraction of a period away,
// then spins out the remainder (a few microseconds when the schedule is
// aligned with the ticks).
func (c *tickClock) SleepUntil(t time.Time) {
	for time.Until(t) > c.period/4 {
		if _, err := c.pipe.Read(c.buf[:]); err != nil {
			time.Sleep(time.Until(t)) // the tick process died; fall back
			return
		}
	}
	for time.Now().Before(t) {
	}
}

func (c *tickClock) stop() {
	c.cmd.Process.Kill()
	c.pipe.Close()
	c.cmd.Wait()
}

// tickMain is the tick child: one byte to standard output every period, on
// an absolute schedule, until the pipe closes or the parent kills it.
func tickMain(period time.Duration) {
	runtime.LockOSThread()
	next := time.Now()
	for {
		next = next.Add(period)
		if d := time.Until(next); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		if _, err := os.Stdout.Write([]byte{0}); err != nil {
			return
		}
	}
}
