package stats

import (
	"fmt"
	"math"
)

// Verdict is the outcome of comparing one metric on one workload
// between a parent commit and a change.
type Verdict string

const (
	Better     Verdict = "better"
	Worse      Verdict = "worse"
	Unchanged  Verdict = "unchanged"
	Unresolved Verdict = "unresolved"
)

// MinPairs is the fewest parent/change pairs a verdict other than
// unresolved may rest on.
const MinPairs = 10

// WinShare is the share of pairs a change must win to claim a gain.
const WinShare = 0.9

// Comparison is the evidence behind a Verdict.
type Comparison struct {
	Verdict Verdict
	Pairs   int
	// Wins counts pairs the change read better in; Losses pairs the
	// parent read better in. Ties count for neither.
	Wins, Losses int
	// Parent and Change are each side's median and quartiles.
	ParentQ1, ParentMedian, ParentQ3 float64
	ChangeQ1, ChangeMedian, ChangeQ3 float64
	// Reason says which rule decided the verdict.
	Reason string
}

// Compare applies the paired rule to parent[i] / change[i], the two
// sides' values of one metric on one workload in pair i (run
// alternately, same seed). higherBetter gives the metric's direction
// and bound the share of the parent's median by which the change may
// read worse before it is a regression.
//
//   - Fewer than MinPairs pairs: unresolved.
//   - The change wins at least WinShare of all pairs, its median is
//     better, and the medians differ by more than the parent's own
//     interquartile range: better.
//   - Every change run reads better than every parent run: better.
//   - The parent's interquartile range is wider than the bound:
//     unresolved, since the noise hides any regression the bound allows.
//   - The change's median is worse by more than bound × parent median:
//     worse.
//   - Otherwise: unchanged.
func Compare(parent, change []float64, higherBetter bool, bound float64) Comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	c := Comparison{Pairs: n}
	c.ParentQ1, c.ParentMedian, c.ParentQ3 = Quartiles(parent)
	c.ChangeQ1, c.ChangeMedian, c.ChangeQ3 = Quartiles(change)
	// gain is positive when the change reads better than the parent.
	gain := func(p, ch float64) float64 {
		if higherBetter {
			return ch - p
		}
		return p - ch
	}
	for i := range parent {
		switch g := gain(parent[i], change[i]); {
		case g > 0:
			c.Wins++
		case g < 0:
			c.Losses++
		}
	}
	if n < MinPairs {
		c.Verdict, c.Reason = Unresolved, fmt.Sprintf("%d pairs, need %d", n, MinPairs)
		return c
	}
	iqr := c.ParentQ3 - c.ParentQ1
	medGain := gain(c.ParentMedian, c.ChangeMedian)
	if float64(c.Wins) >= WinShare*float64(n) && medGain > iqr {
		c.Verdict = Better
		c.Reason = fmt.Sprintf("won %d/%d pairs; median gain %.4g > parent IQR %.4g", c.Wins, n, medGain, iqr)
		return c
	}
	if dominates(parent, change, gain) {
		c.Verdict, c.Reason = Better, "every change run reads better than every parent run"
		return c
	}
	limit := bound * math.Abs(c.ParentMedian)
	if iqr > limit {
		c.Verdict = Unresolved
		c.Reason = fmt.Sprintf("parent IQR %.4g wider than the bound %.4g", iqr, limit)
		return c
	}
	if -medGain > limit {
		c.Verdict = Worse
		c.Reason = fmt.Sprintf("median worse by %.4g > bound %.4g", -medGain, limit)
		return c
	}
	c.Verdict = Unchanged
	c.Reason = fmt.Sprintf("median moved %.4g within bound %.4g", -medGain, limit)
	return c
}

// dominates reports whether every change value reads better than every
// parent value.
func dominates(parent, change []float64, gain func(p, ch float64) float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, p := range parent {
		for _, ch := range change {
			if gain(p, ch) <= 0 {
				return false
			}
		}
	}
	return true
}
