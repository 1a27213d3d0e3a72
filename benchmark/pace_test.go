package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on; overshoot makes every sleep wake
// that much late, and stalls (tick number -> extra delay) model a stuck
// generator.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	sleeps    int
	stalls    map[int]time.Duration
}

func (c *fakeClock) Start() time.Time { return c.now }
func (c *fakeClock) Now() time.Time   { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	c.sleeps++
	if t.After(c.now) {
		c.now = t.Add(c.overshoot)
	}
	c.now = c.now.Add(c.stalls[c.sleeps])
}

func TestPacerDueTimesAndCounts(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	p := newPacer(clk, 2*time.Millisecond, 30000)
	total := 0
	for k := 1; k <= 500; k++ {
		due, n := p.next()
		if want := start.Add(time.Duration(k) * 2 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("tick %d due %v, want %v", k, due.Sub(start), want.Sub(start))
		}
		if n != 60 {
			t.Fatalf("tick %d hands out %d events, want 60", k, n)
		}
		total += n
	}
	if total != 30000 {
		t.Errorf("one second at 30000 ev/s handed out %d events", total)
	}
	if got := p.dueOf(15000).Sub(start); got != 500*time.Millisecond {
		t.Errorf("event 15000 due at %v, want 500ms", got)
	}
	if late := p.late.ms(1); late != 0 {
		t.Errorf("a punctual clock recorded %v ms of lateness", late)
	}
}

// TestPacerUnevenRate checks a rate that does not divide the tick: no event
// is lost or duplicated, and each tick's count is the floor rule's.
func TestPacerUnevenRate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	p := newPacer(clk, 2*time.Millisecond, 3333)
	total := 0
	for k := 1; k <= 1500; k++ {
		_, n := p.next()
		if n != 6 && n != 7 {
			t.Fatalf("tick %d hands out %d events, want 6 or 7", k, n)
		}
		total += n
	}
	if total != 9999 {
		t.Errorf("three seconds at 3333 ev/s handed out %d events, want 9999", total)
	}
}

// TestPacerLatenessAccounting stalls the generator for 7 ms at the tenth
// tick: that tick and the three it overran are recorded late by what they
// were late by, they fire back to back without sleeping, and the schedule
// (the due times) does not move.
func TestPacerLatenessAccounting(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), overshoot: 100 * time.Microsecond,
		stalls: map[int]time.Duration{10: 7 * time.Millisecond}}
	start := clk.now
	p := newPacer(clk, 2*time.Millisecond, 1000)
	var lates []time.Duration
	for k := 1; k <= 20; k++ {
		due, _ := p.next()
		if want := start.Add(time.Duration(k) * 2 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("tick %d due moved to %v", k, due.Sub(start))
		}
		lates = append(lates, clk.now.Sub(due))
	}
	want := map[int]time.Duration{ // tick -> lateness
		9:  100 * time.Microsecond,
		10: 7100 * time.Microsecond,
		11: 5100 * time.Microsecond,
		12: 3100 * time.Microsecond,
		13: 1100 * time.Microsecond,
		14: 100 * time.Microsecond,
	}
	for k, w := range want {
		if lates[k-1] != w {
			t.Errorf("tick %d late by %v, want %v", k, lates[k-1], w)
		}
	}
	if got := p.late.ms(1); got != 7.1 {
		t.Errorf("worst recorded lateness %v ms, want 7.1", got)
	}
	if p.late.n() != 20 {
		t.Errorf("%d lateness samples for 20 ticks", p.late.n())
	}
}
