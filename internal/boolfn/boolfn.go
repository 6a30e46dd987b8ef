// Package boolfn provides Boolean functions of up to six variables
// represented as 64-bit truth tables, together with the operations the
// bitstream modification attack needs: input permutation, P-equivalence
// classes, support analysis, a small expression language, and the
// dual-output (O5/O6) LUT algebra of Xilinx 6-input LUTs.
//
// Conventions: variables are a1..a6 as in the paper. In a truth table
// tt, bit m (0 ≤ m < 64) holds f(a1..a6) for the assignment where
// a_{j+1} = (m >> j) & 1; that is, a1 is the least significant index bit.
package boolfn

import (
	"fmt"
)

// MaxVars is the LUT input count k of the targeted FPGA family.
const MaxVars = 6

// TT is a truth table of a Boolean function of up to 6 variables.
type TT uint64

// Const0 and Const1 are the two constant functions.
const (
	Const0 TT = 0
	Const1 TT = ^TT(0)
)

// varMasks[j] has bit m set iff (m>>j)&1 == 1: the truth table of a_{j+1}.
var varMasks = [MaxVars]TT{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the truth table of variable a_{j+1}, 0 ≤ j < 6.
func Var(j int) TT {
	if j < 0 || j >= MaxVars {
		panic(fmt.Sprintf("boolfn: variable index %d out of range", j))
	}
	return varMasks[j]
}

// A returns the truth table of a_n using the paper's 1-based naming.
func A(n int) TT { return Var(n - 1) }

// And, Or, Xor, Not are the basic connectives on truth tables.
func And(f, g TT) TT { return f & g }
func Or(f, g TT) TT  { return f | g }
func Xor(f, g TT) TT { return f ^ g }
func Not(f TT) TT    { return ^f }

// Mux returns s ? t : e computed bitwise over the tables.
func Mux(s, t, e TT) TT { return (s & t) | (^s & e) }

// Eval evaluates the function at the assignment encoded in m (bit j of m
// is the value of a_{j+1}).
func (f TT) Eval(m uint) bool { return f>>(m&63)&1 == 1 }

// Cofactor returns the cofactor of f with variable j fixed to val,
// expressed as a function that ignores variable j.
func (f TT) Cofactor(j int, val bool) TT {
	v := Var(j)
	var half TT
	if val {
		half = f & v
	} else {
		half = f &^ v
	}
	// Duplicate the kept half into both halves so the result is
	// independent of variable j.
	shift := uint(1) << uint(j)
	if val {
		return half | half>>shift
	}
	return half | half<<shift
}

// DependsOn reports whether f actually depends on variable j.
func (f TT) DependsOn(j int) bool {
	return f.Cofactor(j, false) != f.Cofactor(j, true)
}

// Support returns the bitmask of variables f depends on (bit j set for
// a_{j+1}) and the support size.
func (f TT) Support() (mask uint, size int) {
	for j := 0; j < MaxVars; j++ {
		if f.DependsOn(j) {
			mask |= 1 << uint(j)
			size++
		}
	}
	return mask, size
}

// Permute returns the truth table of f with inputs reordered so that the
// new variable j reads the old variable perm[j]. perm must be a
// permutation of 0..len(perm)-1 with len(perm) ≤ 6; variables from
// len(perm) on keep their place. Anything else panics.
//
// The permutation runs as at most five transpositions: position j, in
// turn, takes old variable perm[j] from the position k ≥ j that holds
// it. Swapping variables j < k exchanges every minterm with a_j = 1,
// a_k = 0 and its partner 2^k − 2^j above it, which is one masked delta
// swap on the 64-bit table.
func (f TT) Permute(perm []int) TT {
	if len(perm) > MaxVars {
		panic(fmt.Sprintf("boolfn: permutation of length %d exceeds %d variables", len(perm), MaxVars))
	}
	var seen uint
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen>>uint(v)&1 != 0 {
			panic(fmt.Sprintf("boolfn: %v is not a permutation of 0..%d", perm, len(perm)-1))
		}
		seen |= 1 << uint(v)
	}
	// at[j] is the old variable now at position j; pos is its inverse.
	var at, pos [MaxVars]int
	for j := range at {
		at[j], pos[j] = j, j
	}
	for j, v := range perm {
		k := pos[v]
		if k == j {
			continue
		}
		shift := uint(1)<<uint(k) - uint(1)<<uint(j)
		t := (f>>shift ^ f) & (varMasks[j] &^ varMasks[k])
		f ^= t | t<<shift
		at[j], at[k] = v, at[j]
		pos[v], pos[at[k]] = j, k
	}
	return f
}

// Permutations returns all permutations of 0..k-1 in a deterministic
// order. k ≤ 8 keeps this comfortably bounded (8! = 40320).
func Permutations(k int) [][]int {
	if k < 0 || k > 8 {
		panic("boolfn: Permutations supports 0 ≤ k ≤ 8")
	}
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(n int)
	rec = func(n int) {
		if n == 1 {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := 0; i < n; i++ {
			rec(n - 1)
			if n%2 == 0 {
				base[i], base[n-1] = base[n-1], base[i]
			} else {
				base[0], base[n-1] = base[n-1], base[0]
			}
		}
	}
	if k == 0 {
		return [][]int{{}}
	}
	rec(k)
	return out
}

// perms6 is Permutations(6), shared read-only by every expansion over
// all input orders.
var perms6 = Permutations(MaxVars)

// PClassCanon returns the canonical representative of the P-equivalence
// class of f: the minimum truth table over all input permutations. Two
// functions f, g satisfy PClassCanon(f) == PClassCanon(g) iff f can be
// transformed into g by permuting inputs (footnote 1 of the paper).
func PClassCanon(f TT) TT {
	min := f
	for _, p := range perms6 {
		if g := f.Permute(p); g < min {
			min = g
		}
	}
	return min
}

// PClass returns the distinct truth tables P-equivalent to f, sorted
// ascending. Its size divides 720.
func PClass(f TT) []TT {
	seen := make(map[TT]struct{}, 720)
	for _, p := range perms6 {
		seen[f.Permute(p)] = struct{}{}
	}
	out := make([]TT, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	// insertion sort: class sizes are small and this avoids importing sort
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// String renders the truth table as 16 hex digits, most significant
// minterm first, matching the usual LUT INIT attribute notation.
func (f TT) String() string { return fmt.Sprintf("64'h%016X", uint64(f)) }
