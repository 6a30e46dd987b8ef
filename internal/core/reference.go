package core

import (
	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// This file transliterates Algorithm 1 of the paper as written —
// FINDLUT(B, k, f, d, r) with its nested loops over all input
// permutations P_k, all byte positions, and all sub-vector orders P_r,
// with marking — without the indexing optimizations of the Scanner. It
// serves three purposes: executable documentation of the published
// algorithm, an oracle for equivalence tests of the optimized scanner,
// and the baseline of the search-optimization ablation benchmarks.

// RefParams are the explicit parameters of Algorithm 1. k is fixed at 6
// by the ξ mapping of the 7-series family; d and r are free exactly as
// in the paper's signature ("offset d (depends on the FPGA)", "number of
// partitions r (depends on the FPGA)").
type RefParams struct {
	// D is the byte offset between consecutive sub-vectors.
	D int
	// R is the number of sub-vectors the permuted table splits into;
	// must divide 8 (the table's byte count).
	R int
	// AllOrders iterates all r! sub-vector orders as in the pseudocode;
	// false restricts to the two orders that occur on real parts.
	AllOrders bool
}

// SevenSeries returns the parameters of Section V-A: r = 4 sub-vectors
// at d = 101 bytes.
func SevenSeries() RefParams {
	return RefParams{D: bitstream.SubVectorOffset, R: bitstream.SubVectors}
}

// partitionXi permutes f through ξ and splits the resulting 8 bytes into
// r sub-vectors of 8/r bytes (B₁ first).
func partitionXi(f boolfn.TT, r int) [][]byte {
	xi := bitstream.Xi(f)
	per := 8 / r
	out := make([][]byte, r)
	for j := 0; j < r; j++ {
		sub := make([]byte, per)
		for b := 0; b < per; b++ {
			sub[b] = byte(xi >> uint(8*(j*per+b)))
		}
		out[j] = sub
	}
	return out
}

// FindLUTReference is Algorithm 1. It returns the set L of byte indexes
// where a 6-LUT implementing f (under some input order and sub-vector
// order) may be located, in ascending order.
func FindLUTReference(bs []byte, f boolfn.TT, p RefParams) []int {
	if p.R <= 0 || 8%p.R != 0 {
		panic("core: R must divide the 8 table bytes")
	}
	m := 8/p.R - 1 // sub-vector length minus one, in bytes
	// Line 2-3: compute the permutation sets.
	pk := boolfn.Permutations(boolfn.MaxVars)
	var pr [][]int
	if p.AllOrders {
		pr = boolfn.Permutations(p.R)
	} else {
		switch p.R {
		case 4:
			lOrd := bitstream.SubVectorOrder(bitstream.SliceL)
			mOrd := bitstream.SubVectorOrder(bitstream.SliceM)
			pr = [][]int{lOrd[:], mOrd[:]}
		default:
			// Without family knowledge, fall back to the identity order.
			id := make([]int, p.R)
			for i := range id {
				id[i] = i
			}
			pr = [][]int{id}
		}
	}
	marked := make(map[int]bool)
	var out []int
	limit := len(bs) - (p.R-1)*p.D - (m + 1)
	// Line 4: for each input order.
	for _, perm := range pk {
		// Lines 5-8: truth table for this order, ξ, partition.
		sub := partitionXi(f.Permute(perm), p.R)
		// Line 9: for each byte position.
		for l := 0; l <= limit; l++ {
			// Line 10: skip marked positions.
			if marked[l] {
				continue
			}
			// Line 11: for each sub-vector order.
			for _, j := range pr {
				ok := true
				for q := 0; q < p.R && ok; q++ {
					want := sub[j[q]]
					off := l + q*p.D
					for b := 0; b <= m; b++ {
						if bs[off+b] != want[b] {
							ok = false
							break
						}
					}
				}
				// Lines 12-14: record and mark.
				if ok {
					out = append(out, l)
					marked[l] = true
					break
				}
			}
		}
	}
	// The per-permutation outer loop emits indexes out of order; sort.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
