package main

import (
	"math"
	"testing"
	"time"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v (ten samples must lie beyond it)", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12.1, 9.5, 10.2, 11.7, 10.9, 9.9, 13.4, 10.4, 11.1, 10.0}
	q1, q3 := quartiles(v)
	// python3 -c "import statistics; print(statistics.quantiles([...], n=4))"
	// -> [9.975, 10.65, 11.8]
	if math.Abs(q1-9.975) > 1e-9 || math.Abs(q3-11.8) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 9.975, 11.8", q1, q3)
	}
	if m := median(v); math.Abs(m-10.65) > 1e-9 {
		t.Errorf("median = %v, want 10.65", m)
	}
}

func TestLatencyQuantilesAndWindows(t *testing.T) {
	var l latencies
	start := time.Unix(50, 0)
	for i := 1; i <= 100; i++ {
		l.add(start.Add(time.Duration(i)*10*time.Millisecond), time.Duration(i)*time.Millisecond)
	}
	if got := l.ms(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := l.ms(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	w := l.windowed(start, 500*time.Millisecond)
	if len(w) != 3 || len(w[0]) != 49 || len(w[1]) != 50 || len(w[2]) != 1 {
		t.Errorf("windows hold %d/%d/%d samples, want 49/50/1", len(w[0]), len(w[1]), len(w[2]))
	}
}
