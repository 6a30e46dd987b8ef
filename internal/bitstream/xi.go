// Package bitstream implements the Xilinx 7-series configuration
// bitstream format at the level of detail the paper's attack operates on:
// Type 1/Type 2 configuration packets, the FDRI frame data (101 words of
// 4 bytes per frame), the ξ permutation of LUT truth tables (Table I of
// the paper), the r = 4 sub-vector partitioning at d = 101-byte offsets
// with SLICEL/SLICEM orders, the configuration CRC with the disable
// technique of Section V-B, and the MAC-then-encrypt envelope of Fig. 1
// (HMAC key stored in two plaintext locations inside the encrypted
// region).
//
// The assembler serializes a technology-mapped design into a bitstream;
// the companion package device configures a simulated FPGA from the raw
// bytes. The attack only ever touches the bytes.
package bitstream

import "snowbma/internal/boolfn"

// xiTable is Table I of the paper: xiTable[i] is the bit position of F[i]
// in the permuted vector B = ξ(F). F is indexed with a1 as the least
// significant index bit, matching the table's (a6 ... a1) row labels.
var xiTable = [64]byte{
	63, 47, 62, 46, 61, 45, 60, 44,
	15, 31, 14, 30, 13, 29, 12, 28,
	59, 43, 58, 42, 57, 41, 56, 40,
	11, 27, 10, 26, 9, 25, 8, 24,
	55, 39, 54, 38, 53, 37, 52, 36,
	7, 23, 6, 22, 5, 21, 4, 20,
	51, 35, 50, 34, 49, 33, 48, 32,
	3, 19, 2, 18, 1, 17, 0, 16,
}

// xiInverse[j] is the F position stored at B[j].
var xiInverse = func() [64]byte {
	var inv [64]byte
	for i, j := range xiTable {
		inv[j] = byte(i)
	}
	return inv
}()

// xiBytes[q][v] and xiInvBytes[q][v] are ξ and ξ⁻¹ of the 64-bit word
// holding v in byte q and zeros elsewhere. Both maps only move bits, so
// a whole word's image is the OR of its eight bytes' images: 2 × 16 KiB
// of tables turn 64 single-bit moves into eight lookups.
var xiBytes, xiInvBytes = xiByteTables(&xiTable), xiByteTables(&xiInverse)

func xiByteTables(to *[64]byte) *[8][256]uint64 {
	var t [8][256]uint64
	for q := range t {
		for v := range t[q] {
			for bit := 0; bit < 8; bit++ {
				if v>>bit&1 == 1 {
					t[q][v] |= 1 << to[8*q+bit]
				}
			}
		}
	}
	return &t
}

// xiApply maps w through one of the byte tables.
func xiApply(t *[8][256]uint64, w uint64) (out uint64) {
	for q := range t {
		out |= t[q][byte(w>>(8*q))]
	}
	return out
}

// Xi permutes a 64-bit truth table F into the bitstream-order vector
// B = ξ(F).
func Xi(f boolfn.TT) uint64 { return xiApply(xiBytes, uint64(f)) }

// XiInv recovers the truth table from its bitstream-order vector.
func XiInv(b uint64) boolfn.TT { return boolfn.TT(xiApply(xiInvBytes, b)) }
