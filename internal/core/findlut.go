// Package core implements the paper's contribution: the FINDLUT
// algorithm (Algorithm 1) locating every k-input LUT that implements a
// given Boolean function in a raw bitstream, the candidate-verification
// loops of Section VI-C, the key-independent bitstream exploration
// technique of Section VI-D, end-to-end key extraction, the dual-output
// XOR search used against the protected design (Section VII-B), and the
// countermeasure complexity analysis (Lemma VII-A).
//
// Everything in this package treats the bitstream as opaque bytes plus
// the published layout parameters (k = 6, r = 4, d = 101, the ξ table,
// the two slice orders) and observes the device only through its
// keystream — the attacker's exact vantage point.
package core

import (
	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// Match is one candidate location a Scanner reports for a function.
type Match struct {
	// Index is the byte offset l of the first sub-vector in the
	// bitstream.
	Index int
	// Perm is the input order (i1, ..., ik) under which the stored table
	// equals the target function: physical input j carries the target's
	// variable Perm[j].
	Perm []int
	// Order is the sub-vector order that matched (SLICEL or SLICEM).
	Order bitstream.SliceType
}

// Overlaps reports whether two matches share a bitstream byte. With Δ
// the index difference, sub-vector q of one match and q' of the other
// collide iff Δ + (q'−q)·d lies within one byte of 0, so the rule is
// |Δ + k·d| ≤ 1 for some k in [−3, 3]. Bytes() defines the same rule
// (TestMatchOverlapsMatchesByteSets).
func (m Match) Overlaps(o Match) bool {
	const d = bitstream.SubVectorOffset
	delta := o.Index - m.Index
	if delta < 0 {
		delta = -delta
	}
	// |Δ| = k·d + e with k in [0, 3] and e in {−1, 0, 1}.
	return delta <= (bitstream.SubVectors-1)*d+1 && (delta+1)%d <= 2
}

// overlapsAny reports whether m overlaps the match of any element of
// claimed: the Section VI-C rule that a candidate sharing a byte with an
// already-claimed LUT cannot be a LUT itself.
func overlapsAny[T any](m Match, claimed []T, matchOf func(T) Match) bool {
	for _, c := range claimed {
		if matchOf(c).Overlaps(m) {
			return true
		}
	}
	return false
}

// confirmedMatch and alphaMatch adapt the claimed sets to overlapsAny.
func confirmedMatch(c ConfirmedLUT) Match { return c.Match }
func alphaMatch(aw alphaWrite) Match      { return aw.m }

// FindOptions tunes the search. The scan checks only the two sub-vector
// orders that occur on 7-series parts (Section V-A); FindLUTReference's
// AllOrders keeps the 4! orders of the generic Algorithm 1 statement.
type FindOptions struct {
	// Parallel limits worker goroutines; 0 means GOMAXPROCS.
	Parallel int
}

// candidate is one (table, perm, order) the scanner looks for. anchor is
// the sub-vector used as the scan probe: the one least likely to occur in
// background data (never 0x0000/0xFFFF when the candidate has any other
// value), so uninitialized fabric never triggers deep comparisons.
type candidate struct {
	sub    [4]uint16 // sub-vectors in storage order
	anchor int
	perm   []int
	order  bitstream.SliceType
}

// pickAnchor selects the probe sub-vector for a candidate.
func pickAnchor(sub [4]uint16) int {
	best := 0
	bestScore := -1
	for q, v := range sub {
		score := 2
		if v == 0x0000 || v == 0xFFFF {
			score = 0
		} else if v == 0x00FF || v == 0xFF00 {
			score = 1
		}
		if score > bestScore {
			best, bestScore = q, score
		}
	}
	return best
}

func matchAt(b []byte, l int, c *candidate) bool {
	for q := 0; q < bitstream.SubVectors; q++ {
		off := l + q*bitstream.SubVectorOffset
		if uint16(b[off])|uint16(b[off+1])<<8 != c.sub[q] {
			return false
		}
	}
	return true
}

// buildCandidates expands f over input permutations and sub-vector
// orders into the raw byte patterns to search for. The permutation
// expansion (and its symmetry dedup) comes from boolfn.PermutedTables;
// the compiled catalogue is cached by catalogueFor under f, so callers
// should go through that.
func buildCandidates(f boolfn.TT) []candidate {
	seen := make(map[[4]uint16]bool)
	var out []candidate
	for _, pt := range boolfn.PermutedTables(f, true) {
		for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
			enc := bitstream.EncodeLUT(pt.Table, order)
			var sub [4]uint16
			for q := 0; q < 4; q++ {
				sub[q] = uint16(enc[q][0]) | uint16(enc[q][1])<<8
			}
			if !seen[sub] {
				seen[sub] = true
				out = append(out, candidate{sub: sub, anchor: pickAnchor(sub), perm: pt.Perm, order: order})
			}
		}
	}
	return out
}

// WriteMatch replaces the matched LUT's content with the faulty function
// fAlpha, expressed in the same variable frame as the searched function:
// the permutation and sub-vector order of the match are re-applied so the
// new truth table lands on the same physical pins.
func WriteMatch(b []byte, m Match, fAlpha boolfn.TT) {
	table := fAlpha.Permute(m.Perm)
	enc := bitstream.EncodeLUT(table, m.Order)
	for q := 0; q < bitstream.SubVectors; q++ {
		off := m.Index + q*bitstream.SubVectorOffset
		b[off] = enc[q][0]
		b[off+1] = enc[q][1]
	}
}

// FindDualXOR implements the Section VII-B search: every byte position
// whose decoded 64-bit table (under either slice order) carries a bare
// 2-input XOR in one half and any function of up to five dependent
// variables in the other. lo and hi bound the scanned byte interval
// (hi ≤ 0 means the end of the bitstream), modelling the paper's
// constrained search over 200 000 positions. The scan runs on the
// Scanner's worker pool and decides each position from two raw 4-byte
// lane keys behind a 16-bit prefilter; it never decodes a LUT.
func FindDualXOR(b []byte, lo, hi int) []int {
	s := NewScanner(FindOptions{})
	s.AddDualXOR("w", lo, hi)
	return s.Scan(b).DualHits["w"]
}
