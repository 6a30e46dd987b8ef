package boolfn

import (
	"fmt"
	"math/bits"
	"strings"
)

// Table and catalogue helpers that only this package's tests call.

// OnSet returns the number of minterms on which f is 1.
func (f TT) OnSet() int { return bits.OnesCount64(uint64(f)) }

// Minterms lists the on-set assignments of f as variable-value strings,
// a6 first.
func (f TT) Minterms() []string {
	var out []string
	for m := uint(0); m < 64; m++ {
		if f.Eval(m) {
			var b strings.Builder
			for j := MaxVars - 1; j >= 0; j-- {
				if m>>uint(j)&1 == 1 {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			out = append(out, b.String())
		}
	}
	return out
}

// CandidateByName returns the Table II row with the given name (f1..f21)
// and whether it exists.
func CandidateByName(name string) (Candidate, bool) {
	for _, s := range candidateSpecs {
		if s.name == name {
			return Candidate{Name: s.name, Path: s.path, Expr: s.expr, TT: MustParse(s.expr)}, true
		}
	}
	return Candidate{}, false
}

// AlphaFault maps a confirmed candidate function to its stuck-at-0
// replacement, or returns false when the catalogue does not define one.
func AlphaFault(f TT) (TT, bool) {
	switch f {
	case F2:
		return Const0, true // whole-LUT zeroing used during verification
	case F8:
		return F8Alpha, true
	case F19:
		return F19Alpha, true
	case FMux2:
		return FMux2Alpha, true
	default:
		return 0, false
	}
}

// Shared5 reports whether f can be realized in dual-output mode, i.e.
// whether it does not depend on a6 (then both halves are equal).
func Shared5(f TT) bool { return !f.DependsOn(5) }

// Lower5 extends a 5-variable table to a 6-variable one independent of a6.
func Lower5(t TT5) TT { return TT(t) | TT(t)<<32 }

// Format renders f as a sum of products over its support, in the paper's
// notation (juxtaposition for AND, ⊕ never appears — the SOP is exact but
// not minimal). The tests parse it back as an exact SOP of f.
func Format(f TT) string {
	if f == Const0 {
		return "0"
	}
	if f == Const1 {
		return "1"
	}
	mask, _ := f.Support()
	var terms []string
	for m := uint(0); m < 64; m++ {
		// Only enumerate assignments canonical on the support: variables
		// outside the support fixed to 0.
		if uint64(m)&^uint64(mask) != 0 {
			continue
		}
		if !f.Eval(m) {
			continue
		}
		var b strings.Builder
		for j := 0; j < MaxVars; j++ {
			if mask>>uint(j)&1 == 0 {
				continue
			}
			if m>>uint(j)&1 == 1 {
				fmt.Fprintf(&b, "a%d", j+1)
			} else {
				fmt.Fprintf(&b, "a%d'", j+1)
			}
		}
		terms = append(terms, b.String())
	}
	return strings.Join(terms, " + ")
}
