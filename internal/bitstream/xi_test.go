package bitstream

import (
	"testing"

	"snowbma/internal/boolfn"
)

// xiBitSerial and xiInvBitSerial are ξ and ξ⁻¹ straight from Table I:
// one bit move per truth-table position. The byte-table Xi and XiInv
// must equal them.
func xiBitSerial(f boolfn.TT) uint64 {
	var b uint64
	for i := 0; i < 64; i++ {
		b |= uint64(f>>uint(i)&1) << xiTable[i]
	}
	return b
}

func xiInvBitSerial(b uint64) boolfn.TT {
	var f boolfn.TT
	for j := 0; j < 64; j++ {
		f |= boolfn.TT(b>>uint(j)&1) << xiInverse[j]
	}
	return f
}

// Xi and XiInv OR together the table images of their input's eight
// bytes, and the bit-serial maps send disjoint bytes to disjoint bits.
// So agreeing on every single-byte input (every entry of both tables)
// proves them equal to the oracles on all 2^64 inputs.
func TestXiMatchesBitSerial(t *testing.T) {
	for q := uint(0); q < 8; q++ {
		for v := uint64(0); v < 256; v++ {
			w := v << (8 * q)
			if got, want := Xi(boolfn.TT(w)), xiBitSerial(boolfn.TT(w)); got != want {
				t.Fatalf("Xi(%016x) = %016x, bit-serial %016x", w, got, want)
			}
			if got, want := XiInv(w), xiInvBitSerial(w); got != want {
				t.Fatalf("XiInv(%016x) = %016x, bit-serial %016x", w, uint64(got), uint64(want))
			}
			if got := XiInv(Xi(boolfn.TT(w))); got != boolfn.TT(w) {
				t.Fatalf("XiInv(Xi(%016x)) = %016x", w, uint64(got))
			}
		}
	}
}
