package main

import (
	"math"
	"sort"
	"time"
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the method Python's statistics.quantiles(v,
// n=4) uses (exclusive), so the spreads printed here are the ones the driver
// computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates topPercentile picks from.
var tailPercentiles = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// topPercentile picks the highest percentile that still has at least ten
// samples beyond it: the furthest into the tail the sample supports.
func topPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// latencies collects one kind of latency sample, each with the instant it
// was due, so the samples can also be read window by window.
type latencies struct {
	at []time.Time
	d  []time.Duration
}

func (l *latencies) add(at time.Time, d time.Duration) {
	l.at, l.d = append(l.at, at), append(l.d, d)
}

func (l *latencies) n() int { return len(l.d) }

func (l *latencies) merge(o *latencies) {
	l.at, l.d = append(l.at, o.at...), append(l.d, o.d...)
}

// msOf returns the q-quantile of durations in milliseconds (nearest rank).
func msOf(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)]) / float64(time.Millisecond)
}

// ms returns the q-quantile over every sample, in milliseconds.
func (l *latencies) ms(q float64) float64 { return msOf(l.d, q) }

// quietWindow is the width of the windows quietP50 ranks.
const quietWindow = time.Second

// quietP50 is the median latency of the second-quietest second: the samples
// are grouped into one-second windows by due time, each window's median is
// taken, and the second lowest is returned. A shared host's interference
// only ever adds latency, and it comes and goes over seconds, so the low end
// of the per-second medians repeats from run to run where the phase-wide
// median does not; the very lowest is dropped as possibly a fluke. Windows
// with under ten samples (the phase's ragged end) are ignored.
func (l *latencies) quietP50(start time.Time) float64 {
	var p50s []float64
	for _, w := range l.windowed(start, quietWindow) {
		if len(w) >= 10 {
			p50s = append(p50s, msOf(w, 0.5))
		}
	}
	if len(p50s) == 0 {
		return l.ms(0.5)
	}
	sort.Float64s(p50s)
	return p50s[min(1, len(p50s)-1)]
}

// windowed groups the samples by the window of width w their due instant
// falls in, counted from start.
func (l *latencies) windowed(start time.Time, w time.Duration) [][]time.Duration {
	var out [][]time.Duration
	for i, at := range l.at {
		k := int(at.Sub(start) / w)
		if k < 0 {
			continue
		}
		for len(out) <= k {
			out = append(out, nil)
		}
		out[k] = append(out[k], l.d[i])
	}
	return out
}
