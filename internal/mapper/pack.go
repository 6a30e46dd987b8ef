package mapper

import (
	"sort"

	"snowbma/internal/boolfn"
	"snowbma/internal/netlist"
)

// PhysLUT is a physical fracturable 6-input LUT after packing. A single-
// output LUT uses outputs O6 only; a dual-output LUT carries two functions
// of at most five shared inputs with a6 acting as the output selector
// (paper Fig. 4). Init is the 64-bit truth table that ends up in the
// bitstream: for a dual LUT the a6=0 half is O5, the a6=1 half is O6.
type PhysLUT struct {
	Inputs []netlist.NodeID
	Init   boolfn.TT
	Dual   bool
	// O6Root is the net produced on O6; O5Root is netlist.Invalid for a
	// single-output LUT.
	O6Root netlist.NodeID
	O5Root netlist.NodeID
}

// PackPolicy controls dual-output packing. Vivado packs opportunistically;
// the attack narrative needs control: the unprotected design is serialized
// unpacked (matching the full-width LUT₁/LUT₂/LUT₃ matches of Table II),
// while the protected design packs its trivially-cut XOR pairs exactly as
// Section VII-A reports ("both outputs implement the 2-input XOR" or
// "one output implements the 2-input XOR and another ... up to 5
// dependent variables").
type PackPolicy struct {
	// Prefer lists roots (typically the trivially-cut XOR nodes) that
	// should be packed pairwise first.
	Prefer map[netlist.NodeID]bool
	// PairWithOthers lets a leftover preferred LUT share a physical LUT
	// with any other ≤5-input LUT when their input union fits.
	PairWithOthers bool
}

// Pack assigns the logical LUTs of a mapping to physical LUTs.
func Pack(r *Result, pol PackPolicy) []PhysLUT {
	used := make([]bool, len(r.LUTs))
	var phys []PhysLUT

	fits := func(i, j int) ([]netlist.NodeID, bool) {
		if len(r.LUTs[i].Inputs) > 5 || len(r.LUTs[j].Inputs) > 5 {
			return nil, false
		}
		union := append([]netlist.NodeID(nil), r.LUTs[i].Inputs...)
		union = append(union, r.LUTs[j].Inputs...)
		sort.Slice(union, func(a, b int) bool { return union[a] < union[b] })
		union = dedupe(union)
		if len(union) > 5 {
			return nil, false
		}
		return union, true
	}

	makeDual := func(i, j int, union []netlist.NodeID) PhysLUT {
		o5 := remap(&r.LUTs[i], union)
		o6 := remap(&r.LUTs[j], union)
		d := boolfn.DualLUT{O5: boolfn.Shrink5(o5), O6: boolfn.Shrink5(o6)}
		return PhysLUT{
			Inputs: union, Init: d.Pack(), Dual: true,
			O5Root: r.LUTs[i].Root, O6Root: r.LUTs[j].Root,
		}
	}

	candidate := func(i int) bool {
		return !used[i] && len(r.LUTs[i].Inputs) <= 5 && pol.Prefer[r.LUTs[i].Root]
	}

	// First pass: pair preferred LUTs greedily.
	for i := range r.LUTs {
		if !candidate(i) {
			continue
		}
		for j := i + 1; j < len(r.LUTs); j++ {
			if !candidate(j) {
				continue
			}
			if union, ok := fits(i, j); ok {
				phys = append(phys, makeDual(i, j, union))
				used[i], used[j] = true, true
				break
			}
		}
	}
	// Second pass: leftovers pair with arbitrary small LUTs.
	if pol.PairWithOthers {
		for i := range r.LUTs {
			if used[i] || !pol.Prefer[r.LUTs[i].Root] || len(r.LUTs[i].Inputs) > 5 {
				continue
			}
			for j := range r.LUTs {
				if j == i || used[j] || len(r.LUTs[j].Inputs) > 5 {
					continue
				}
				if union, ok := fits(i, j); ok {
					phys = append(phys, makeDual(i, j, union))
					used[i], used[j] = true, true
					break
				}
			}
		}
	}
	// Remaining LUTs become single-output physical LUTs.
	for i := range r.LUTs {
		if used[i] {
			continue
		}
		phys = append(phys, PhysLUT{
			Inputs: append([]netlist.NodeID(nil), r.LUTs[i].Inputs...),
			Init:   r.LUTs[i].Fn,
			O6Root: r.LUTs[i].Root,
			O5Root: netlist.Invalid,
		})
	}
	return phys
}

// remap rewrites a LUT function over the union input list: variable i of
// the result reads union[i].
func remap(l *LUT, union []netlist.NodeID) boolfn.TT {
	perm := make([]int, boolfn.MaxVars)
	usedVar := make([]bool, boolfn.MaxVars)
	// perm[newPos] = oldPos: new variable i (union[i]) reads the old
	// variable at the LUT's own input position.
	pos := map[netlist.NodeID]int{}
	for oldPos, in := range l.Inputs {
		pos[in] = oldPos
	}
	next := len(l.Inputs)
	for newPos := range perm {
		perm[newPos] = -1
		if newPos < len(union) {
			if oldPos, ok := pos[union[newPos]]; ok {
				perm[newPos] = oldPos
				usedVar[oldPos] = true
			}
		}
	}
	// Unreferenced new positions take the remaining old variable slots
	// (the function does not depend on them, any assignment works).
	for newPos := range perm {
		if perm[newPos] != -1 {
			continue
		}
		for ; next < boolfn.MaxVars && usedVar[next]; next++ {
		}
		if next < boolfn.MaxVars {
			perm[newPos] = next
			usedVar[next] = true
			next++
			continue
		}
		// All high slots consumed: reuse any free old variable.
		for old := 0; old < boolfn.MaxVars; old++ {
			if !usedVar[old] {
				perm[newPos] = old
				usedVar[old] = true
				break
			}
		}
	}
	return l.Fn.Permute(perm)
}
