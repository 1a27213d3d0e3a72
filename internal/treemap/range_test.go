package treemap

import "testing"

func rangeTree() *Tree {
	tr := New()
	for _, k := range []float64{10, 20, 30, 40, 50} {
		tr.Put(k, k)
	}
	return tr
}

func TestHigher(t *testing.T) {
	tr := rangeTree()
	if h, ok := tr.Higher(20); !ok || h != 30 {
		t.Fatalf("Higher(20) = %v,%v", h, ok)
	}
	if h, ok := tr.Higher(25); !ok || h != 30 {
		t.Fatalf("Higher(25) = %v,%v", h, ok)
	}
	if _, ok := tr.Higher(50); ok {
		t.Fatal("Higher(50) should be absent")
	}
}

func TestFirstPrefixGreater(t *testing.T) {
	tr := rangeTree() // prefix sums: 10,30,60,100,150
	cases := []struct {
		th   float64
		want float64
		ok   bool
	}{
		{0, 10, true},
		{9, 10, true},
		{10, 20, true},
		{30, 30, true},
		{59, 30, true},
		{60, 40, true},
		{149, 50, true},
		{150, 0, false},
	}
	for _, c := range cases {
		got, ok := tr.FirstPrefixGreater(c.th)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("FirstPrefixGreater(%v) = %v,%v want %v,%v", c.th, got, ok, c.want, c.ok)
		}
	}
	if _, ok := New().FirstPrefixGreater(0); ok {
		t.Fatal("FirstPrefixGreater on empty tree should be absent")
	}
}

func TestAscendRange(t *testing.T) {
	tr := rangeTree()
	var got []float64
	tr.AscendRange(20, 50, func(k, _ float64) bool {
		got = append(got, k)
		return true
	})
	want := []float64{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("AscendRange = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange = %v, want %v", got, want)
		}
	}
	var n int
	tr.AscendRange(0, 100, func(k, _ float64) bool {
		n++
		return k < 30
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRangeSum(t *testing.T) {
	tr := rangeTree()
	if got := tr.RangeSum(20, 50); got != 90 {
		t.Fatalf("RangeSum(20,50) = %v", got)
	}
	if got := tr.RangeSum(50, 20); got != 0 {
		t.Fatalf("inverted RangeSum = %v", got)
	}
	if got := tr.RangeSum(15, 15); got != 0 {
		t.Fatalf("empty RangeSum = %v", got)
	}
	if got := tr.SuffixSumFrom(30); got != 120 {
		t.Fatalf("SuffixSumFrom(30) = %v", got)
	}
}
