package main

import (
	"math"
	"testing"
)

// TestShares splits two ops with nested, overlapping and out-of-parent
// spans between layers by self time.
func TestShares(t *testing.T) {
	tr := newTracer()
	r1 := tr.op("attack", 0, 100)
	a := tr.add(r1, "a", 10, 50)
	tr.add(a, "c", 20, 30)
	b := tr.add(r1, "b", 40, 80) // overlaps a: counts from 50
	tr.add(b, "d", 30, 45)       // before b's counted part: nothing
	r2 := tr.op("attack", 200, 300)
	tr.add(r2, "a", 190, 310) // clipped to its op
	got, opMS := tr.shares([]int{r1, r2})
	// Op 1: a 40-10=30, c 10, b 30, unattributed 30. Op 2: a 100.
	want := map[string]float64{"a_pct": 65, "b_pct": 15, "c_pct": 5, "d_pct": 0, "bench.unattributed_pct": 15}
	sum := 0.0
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares add up to %v, want 100", sum)
	}
	if opMS != 100/1e6 {
		t.Errorf("mean op %v ms, want %v", opMS, 100/1e6)
	}
}
