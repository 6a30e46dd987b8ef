// Package snow3g implements the SNOW 3G stream cipher as specified by
// ETSI/SAGE "Specification of the 3GPP Confidentiality and Integrity
// Algorithms UEA2 & UIA2. Document 2: SNOW 3G Specification".
//
// Beyond the reference cipher, the package provides the fault-configurable
// model used by the bitstream modification attack of Moraitis and Dubrova
// (DATE 2020): the FSM output word can be stuck at 0 during initialization
// and/or keystream generation, and the LFSR can be loaded with the all-0
// vector instead of γ(K, IV). It also implements backward LFSR stepping,
// which turns 16 faulty keystream words into the initial state S⁰ and
// hence the key.
package snow3g

// GF(2^8) moduli used by SNOW 3G. poly1B defines the Rijndael field used
// by the S-box S1 and the MULx constant 0x1B; poly169 (x^8+x^6+x^5+x^3+1)
// defines the field over which the Dickson polynomial g49 generating the
// S-box S2 is evaluated. polyA9 is the reduction constant for MULα/DIVα.
const (
	mulxS1Const = 0x1B
	mulxS2Const = 0x69
	alphaConst  = 0xA9
)

// sr is the Rijndael S-box (SR in the SNOW 3G specification), computed at
// package init from its algebraic definition: byte inversion in
// GF(2^8)/x^8+x^4+x^3+x+1 followed by the affine transform with constant
// 0x63. Computing it avoids transcription errors in 256 literals; the test
// suite pins known entries and the paper's keystream tables pin the rest.
var sr [256]byte

// sq is the S-box SQ used by S2, defined in the specification through the
// Dickson polynomial g49(x) = x + x^9 + x^13 + x^15 + x^33 + x^41 + x^45 +
// x^47 + x^49 over GF(2^8)/x^8+x^6+x^5+x^3+1, as SQ(x) = g49(x) ⊕ 0x25.
var sq [256]byte

// mulAlpha and divAlpha are the 8-bit → 32-bit maps MULα and DIVα from the
// specification, precomputed for all byte values. They define the LFSR
// feedback multiplications by α and α⁻¹ in GF(2^32).
var (
	mulAlpha [256]uint32
	divAlpha [256]uint32
)

// invMulAlphaLow inverts the low byte of MULα: invMulAlphaLow[MULα(c)&0xff]
// = c. The map c → MULxPOW(c, 239, 0xA9) is multiplication by a fixed
// non-zero field element and therefore a bijection on bytes; this inverse
// is what makes backward LFSR stepping (key recovery) a table lookup.
var invMulAlphaLow [256]byte

// mulx implements MULx(v, c) from the specification: multiplication of the
// field element v by x, reduced with constant c.
func mulx(v, c byte) byte {
	if v&0x80 != 0 {
		return (v << 1) ^ c
	}
	return v << 1
}

// mulxPow implements MULxPOW(v, i, c): i-fold application of MULx.
func mulxPow(v byte, i int, c byte) byte {
	for ; i > 0; i-- {
		v = mulx(v, c)
	}
	return v
}

// gf8Mul multiplies a and b in GF(2^8) defined by the 9-bit modulus mod
// (e.g. 0x11B for the Rijndael field, 0x169 for the Dickson field).
func gf8Mul(a, b byte, mod uint16) byte {
	var acc uint16
	x := uint16(a)
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			acc ^= x << i
		}
	}
	for i := 15; i >= 8; i-- {
		if acc&(1<<i) != 0 {
			acc ^= mod << (i - 8)
		}
	}
	return byte(acc)
}

// gf8Pow raises a to the e-th power in GF(2^8) defined by mod.
func gf8Pow(a byte, e int, mod uint16) byte {
	result := byte(1)
	base := a
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = gf8Mul(result, base, mod)
		}
		base = gf8Mul(base, base, mod)
	}
	return result
}

// rijndaelInverse returns a^-1 in the Rijndael field, with 0 mapped to 0.
// a^254 = a^-1 for non-zero a; 0^254 = 0, so no special case is needed.
func rijndaelInverse(a byte) byte {
	return gf8Pow(a, 254, 0x11B)
}

// srEntry computes the Rijndael S-box at x: affine transform of x^-1.
func srEntry(x byte) byte {
	inv := rijndaelInverse(x)
	var out byte
	for i := 0; i < 8; i++ {
		bit := (inv>>i)&1 ^ (inv>>((i+4)%8))&1 ^ (inv>>((i+5)%8))&1 ^
			(inv>>((i+6)%8))&1 ^ (inv>>((i+7)%8))&1 ^ (0x63>>i)&1
		out |= bit << i
	}
	return out
}

// sqEntry computes SQ(x) = g49(x) ⊕ 0x25 over GF(2^8)/x^8+x^6+x^5+x^3+1.
func sqEntry(x byte) byte {
	const mod = 0x169
	exps := [...]int{1, 9, 13, 15, 33, 41, 45, 47, 49}
	var acc byte
	for _, e := range exps {
		acc ^= gf8Pow(x, e, mod)
	}
	return acc ^ 0x25
}

func init() {
	for i := 0; i < 256; i++ {
		c := byte(i)
		sr[i] = srEntry(c)
		sq[i] = sqEntry(c)
		mulAlpha[i] = uint32(mulxPow(c, 23, alphaConst))<<24 |
			uint32(mulxPow(c, 245, alphaConst))<<16 |
			uint32(mulxPow(c, 48, alphaConst))<<8 |
			uint32(mulxPow(c, 239, alphaConst))
		divAlpha[i] = uint32(mulxPow(c, 16, alphaConst))<<24 |
			uint32(mulxPow(c, 39, alphaConst))<<16 |
			uint32(mulxPow(c, 6, alphaConst))<<8 |
			uint32(mulxPow(c, 64, alphaConst))
	}
	for i := 0; i < 256; i++ {
		invMulAlphaLow[byte(mulAlpha[i])] = byte(i)
	}
}

// MulAlpha exposes the MULα map for use by the hardware model, which
// stores the same table as block-RAM content in the bitstream.
func MulAlpha(c byte) uint32 { return mulAlpha[c] }

// DivAlpha exposes the DIVα map for use by the hardware model.
func DivAlpha(c byte) uint32 { return divAlpha[c] }

// mixS1 applies the S1 MixColumn-style diffusion to the four substituted
// bytes (w0 most significant), producing the 32-bit S-box output.
func mixS1(w uint32) uint32 {
	w0, w1, w2, w3 := sr[byte(w>>24)], sr[byte(w>>16)], sr[byte(w>>8)], sr[byte(w)]
	r0 := mulx(w0, mulxS1Const) ^ w1 ^ w2 ^ mulx(w3, mulxS1Const) ^ w3
	r1 := mulx(w0, mulxS1Const) ^ w0 ^ mulx(w1, mulxS1Const) ^ w2 ^ w3
	r2 := w0 ^ mulx(w1, mulxS1Const) ^ w1 ^ mulx(w2, mulxS1Const) ^ w3
	r3 := w0 ^ w1 ^ mulx(w2, mulxS1Const) ^ w2 ^ mulx(w3, mulxS1Const)
	return uint32(r0)<<24 | uint32(r1)<<16 | uint32(r2)<<8 | uint32(r3)
}

// mixS2 is the S2 analogue of mixS1 with the SQ box and constant 0x69.
func mixS2(w uint32) uint32 {
	w0, w1, w2, w3 := sq[byte(w>>24)], sq[byte(w>>16)], sq[byte(w>>8)], sq[byte(w)]
	r0 := mulx(w0, mulxS2Const) ^ w1 ^ w2 ^ mulx(w3, mulxS2Const) ^ w3
	r1 := mulx(w0, mulxS2Const) ^ w0 ^ mulx(w1, mulxS2Const) ^ w2 ^ w3
	r2 := w0 ^ mulx(w1, mulxS2Const) ^ w1 ^ mulx(w2, mulxS2Const) ^ w3
	r3 := w0 ^ w1 ^ mulx(w2, mulxS2Const) ^ w2 ^ mulx(w3, mulxS2Const)
	return uint32(r0)<<24 | uint32(r1)<<16 | uint32(r2)<<8 | uint32(r3)
}

// S1 is the FSM S-box updating R2 from R1.
func S1(w uint32) uint32 { return mixS1(w) }

// S2 is the FSM S-box updating R3 from R2.
func S2(w uint32) uint32 { return mixS2(w) }

// tTable builds the 8-bit → 32-bit contribution table of input byte
// position b (0 = most significant) for an AES-style S-box: the MixColumn
// matrix column applied to the substituted byte. The full S-box output is
// the XOR of the four tables — the T-table decomposition hardware
// implementations store in block RAM.
func tTable(box *[256]byte, c byte, b int) [256]uint32 {
	var t [256]uint32
	for x := 0; x < 256; x++ {
		s := box[x]
		m := mulx(s, c)
		var r0, r1, r2, r3 byte
		switch b {
		case 0:
			r0, r1, r2, r3 = m, m^s, s, s
		case 1:
			r0, r1, r2, r3 = s, m, m^s, s
		case 2:
			r0, r1, r2, r3 = s, s, m, m^s
		case 3:
			r0, r1, r2, r3 = m^s, s, s, m
		default:
			panic("snow3g: byte position out of range")
		}
		t[x] = uint32(r0)<<24 | uint32(r1)<<16 | uint32(r2)<<8 | uint32(r3)
	}
	return t
}

// S1TTable returns the T-table of S1 for input byte position b (0 = MSB).
func S1TTable(b int) [256]uint32 { return tTable(&sr, mulxS1Const, b) }

// S2TTable returns the T-table of S2 for input byte position b (0 = MSB).
func S2TTable(b int) [256]uint32 { return tTable(&sq, mulxS2Const, b) }
