// Package stats is the benchmark's own statistics: medians, quartiles
// computed exactly as Python's statistics.quantiles(data, n=4) computes
// them (the "exclusive" method), tail percentiles that are only
// reported when at least ten samples lie beyond them, and the paired
// parent/change verdict rule of the compare mode. It has no
// dependencies outside the standard library.
package stats

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie strictly beyond a percentile
// for it to be reported: a tail percentile resting on fewer samples is
// noise.
const MinBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the interpolation of Python's statistics.quantiles(xs, n=4). One
// sample yields that sample three times; no samples yield NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the nearest-rank p-th percentile of xs (the value
// at rank ⌈p/100·n⌉) and how many samples lie beyond that rank.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted(xs)[rank-1], n - rank
}

// BlockPercentile splits xs, in order, into consecutive blocks of the
// fewest samples that leave MinBeyond beyond the p-th percentile (100
// for p90), the remainder joining the last block, and returns the
// median of the blocks' p-th percentiles and the block size. A burst of
// slow samples then moves one block's percentile instead of the whole
// run's. With fewer than two blocks' worth of samples it is Percentile.
func BlockPercentile(xs []float64, p float64) (value float64, block int) {
	block = int(math.Ceil(MinBeyond * 100 / (100 - p)))
	if len(xs) < 2*block {
		v, _ := Percentile(xs, p)
		return v, block
	}
	var ps []float64
	for i := 0; i+2*block <= len(xs); i += block {
		v, _ := Percentile(xs[i:i+block], p)
		ps = append(ps, v)
	}
	last, _ := Percentile(xs[len(ps)*block:], p)
	return Median(append(ps, last)), block
}

// ladder is the set of percentiles a tail is reported at.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// Tail returns the highest percentile of the ladder 50, 75, 90, 95, 99,
// 99.9 that has at least MinBeyond samples beyond it, with its value.
// ok is false when even the median has fewer than MinBeyond samples
// beyond it.
func Tail(xs []float64) (p, value float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		v, beyond := Percentile(xs, ladder[i])
		if beyond >= MinBeyond {
			return ladder[i], v, true
		}
	}
	return 0, math.NaN(), false
}
