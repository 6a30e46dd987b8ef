package boolfn

import "sort"

// Xilinx 7-series 6-input LUTs are fracturable: one physical LUT can
// implement either a single function of 6 variables on output O6, or two
// functions of up to 5 shared variables on outputs O5 and O6 with the a6
// input tied to the output selector (paper Fig. 4). In the 64-bit INIT
// value the a6=0 half (low 32 bits) drives O5 and the a6=1 half (high 32
// bits) drives O6.

// TT5 is a truth table over a1..a5 stored in the low 32 bits.
type TT5 uint32

// DualLUT is a fracturable LUT configured with two 5-input functions.
type DualLUT struct {
	O5 TT5 // a6 = 0 half
	O6 TT5 // a6 = 1 half
}

// Pack combines the two 5-input halves into a single 6-input INIT table.
func (d DualLUT) Pack() TT {
	return TT(d.O5) | TT(d.O6)<<32
}

// SplitDual decomposes a 6-input table into its two 5-input halves.
func SplitDual(f TT) DualLUT {
	return DualLUT{O5: TT5(f & 0xFFFFFFFF), O6: TT5(f >> 32)}
}

// Shrink5 projects a table independent of a6 down to 5 variables. It
// panics if f depends on a6.
func Shrink5(f TT) TT5 {
	if f.DependsOn(5) {
		panic("boolfn: Shrink5 of a function depending on a6")
	}
	return TT5(f & 0xFFFFFFFF)
}

// xor2Class5 is the set of 5-input truth tables P-equivalent to a1 ⊕ a2
// (as functions of a1..a5). Computed once; used by the countermeasure
// search for dual-output LUTs carrying a bare 2-input XOR in one half.
var xor2Class5 = func() map[TT5]struct{} {
	set := make(map[TT5]struct{})
	target := Xor(A(1), A(2))
	for _, g := range PClass(target) {
		if !g.DependsOn(5) {
			set[Shrink5(g)] = struct{}{}
		}
	}
	return set
}()

// IsXor2Half reports whether the 5-input table equals a 2-input XOR of
// some pair of its inputs (any of the C(5,2)=10 pairs, either polarity of
// packing order). This is the predicate of the paper's Section VII-B
// search: "the 2-input XOR in one half of their truth table".
func IsXor2Half(t TT5) bool {
	_, ok := xor2Class5[t]
	return ok
}

// Xor2Halves returns the 5-input tables IsXor2Half accepts, in
// ascending order: the raw-byte dual-XOR scan compiles them into
// bitstream lane keys.
func Xor2Halves() []TT5 {
	out := make([]TT5, 0, len(xor2Class5))
	for t := range xor2Class5 {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DualXorCandidate reports whether a 64-bit LUT INIT corresponds to a
// dual-output LUT with a 2-input XOR on one output and any function of up
// to 5 dependent variables on the other — the profile of the protected
// implementation's trivially-cut target XORs.
func DualXorCandidate(f TT) bool {
	d := SplitDual(f)
	return IsXor2Half(d.O5) || IsXor2Half(d.O6)
}
