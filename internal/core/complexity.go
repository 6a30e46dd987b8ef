package core

import (
	"math"
	"math/big"
)

// This file reproduces the countermeasure analysis of Section VII:
// Lemma VII-A's Stirling bound on the exhaustive-search effort, the
// decoy-count requirement x ≥ 16/e − 1 ≈ 4.9 for 2¹²⁸ security at
// m = 32, and the C(171, 32) ≈ 2¹¹⁵ cost of attacking the protected
// implementation (Section VII-C).

// Binomial returns C(n, m) exactly.
func Binomial(n, m int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(m))
}

// Log2Binomial returns log2 C(n, m).
func Log2Binomial(n, m int) float64 {
	b := Binomial(n, m)
	f := new(big.Float).SetInt(b)
	// big.Float has no Log2; use the exponent plus a mantissa correction.
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m64, _ := mant.Float64()
	return float64(exp) + math.Log2(m64)
}

// LemmaBound evaluates the Lemma VII-A upper bound (e·(m+r)/m)^m on the
// number of m-subsets of m+r candidates, as log2.
func LemmaBound(m, r int) float64 {
	return float64(m) * math.Log2(math.E*float64(m+r)/float64(m))
}

// SearchEffort returns log2 of the exact exhaustive-search effort
// C(m+r, m) for m targets hidden among m+r equal candidates.
func SearchEffort(m, r int) float64 {
	return Log2Binomial(m+r, m)
}

// MinDecoyRatio returns the smallest integer x such that r = m·x decoys
// push the Lemma VII-A bound to at least securityBits. For m = 32 and
// 128 bits this is 5 (the paper's x ≥ 16/e − 1 ≈ 4.9).
func MinDecoyRatio(m, securityBits int) int {
	for x := 1; ; x++ {
		if LemmaBound(m, m*x) >= float64(securityBits) {
			return x
		}
	}
}
