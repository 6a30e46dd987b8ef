package stats

import (
	"math"
	"testing"
)

// The quartile answers were produced by Python's
// statistics.quantiles(data, n=4) and statistics.median(data).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
		median     float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{1, 2, 3}, 1, 2, 3, 2},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 2.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75, 3.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5, 55},
		{[]float64{2.5, 0.5, 7.25, 1.0, 3.0}, 0.75, 2.5, 5.125, 2.5},
		{[]float64{7}, 7, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := Median(c.data); m != c.median {
			t.Errorf("Median(%v) = %v, want %v", c.data, m, c.median)
		}
	}
	if q1, _, _ := Quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("Quartiles(nil) = %v, want NaN", q1)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestPercentileAndTail(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{100, 90, 90, 10},
		{100, 50, 50, 50},
		{99, 90, 90, 9},
		{10, 100, 10, 0},
		{1, 50, 1, 0},
	}
	for _, c := range cases {
		v, beyond := Percentile(seq(c.n), c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("Percentile(1..%d, %v) = %v (%d beyond), want %v (%d beyond)", c.n, c.p, v, beyond, c.value, c.beyond)
		}
	}
	tails := []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{1000, 99, 990, true},
		// p99 of 999 samples sits at rank ⌈989.01⌉ = 990, leaving 9
		// beyond it, so the tail falls back to p95.
		{999, 95, 950, true},
		{200, 95, 190, true},
		{100, 90, 90, true},
		{99, 75, 75, true},
		{40, 75, 30, true},
		{39, 50, 20, true},
		{19, 0, 0, false},
	}
	for _, c := range tails {
		p, v, ok := Tail(seq(c.n))
		if ok != c.ok || p != c.p || (ok && v != c.v) {
			t.Errorf("Tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
}

func TestBlockPercentile(t *testing.T) {
	ramp := func(i int) float64 { return float64(i%100 + 1) } // 1..100 per block
	burst := func(i int) float64 {
		if i >= 100 && i < 200 {
			return 10 * ramp(i)
		}
		return ramp(i)
	}
	cases := []struct {
		name  string
		xs    []float64
		value float64
	}{
		{"fewer than two blocks: plain p90", fill(150, func(i int) float64 { return float64(i + 1) }), 135},
		{"three equal blocks", fill(300, ramp), 90},
		{"a burst in one block", fill(300, burst), 90},
		{"remainder joins the last block", fill(250, func(i int) float64 { return float64(i + 1) }), (90 + 235) / 2.0},
	}
	for _, c := range cases {
		v, block := BlockPercentile(c.xs, 90)
		if v != c.value || block != 100 {
			t.Errorf("%s: BlockPercentile = %v (blocks of %d), want %v (blocks of 100)", c.name, v, block, c.value)
		}
	}
	if v, _ := Percentile(fill(300, burst), 90); v == 90 {
		t.Errorf("the burst case does not move the plain p90")
	}
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// TestCompareVerdicts builds synthetic paired runs that produce each
// verdict, for a lower-is-better latency with a 10% bound.
func TestCompareVerdicts(t *testing.T) {
	base := func(i int) float64 { return 100 + float64(i%5) } // IQR 3 around 102
	cases := []struct {
		name         string
		parent       []float64
		change       []float64
		higherBetter bool
		want         Verdict
	}{
		{"faster in every pair", fill(10, base), fill(10, func(i int) float64 { return base(i) - 20 }), false, Better},
		{"9 of 10 faster by more than the IQR", fill(10, base),
			fill(10, func(i int) float64 {
				if i == 0 {
					return base(i) + 1
				}
				return base(i) - 8
			}), false, Better},
		{"same numbers", fill(10, base), fill(10, base), false, Unchanged},
		{"slower within the bound", fill(10, base), fill(10, func(i int) float64 { return base(i) + 5 }), false, Unchanged},
		{"slower beyond the bound", fill(10, base), fill(10, func(i int) float64 { return base(i) + 15 }), false, Worse},
		{"throughput drop beyond the bound", fill(10, base), fill(10, func(i int) float64 { return base(i) - 15 }), true, Worse},
		{"noisy parent", fill(10, func(i int) float64 { return 100 + 40*float64(i%2) }),
			fill(10, func(i int) float64 { return 105 + 40*float64((i+1)%2) }), false, Unresolved},
		{"too few pairs", fill(9, base), fill(9, func(i int) float64 { return base(i) - 20 }), false, Unresolved},
		{"gain smaller than the noise", fill(10, base),
			fill(10, func(i int) float64 { return base(i) - 1 }), false, Unchanged},
	}
	for _, c := range cases {
		got := Compare(c.parent, c.change, c.higherBetter, 0.10)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s (%s), want %s", c.name, got.Verdict, got.Reason, c.want)
		}
	}
}
