package boolfn

// PermTable is one input-permuted version of a function: the permuted
// truth table together with the permutation that produced it.
type PermTable struct {
	Table TT
	Perm  []int
}

// PermutedTables expands f over all 6! input permutations in the
// deterministic Permutations order. With dedup set, permutations whose
// permuted truth table was already produced by an earlier permutation are
// dropped (the symmetry pruning of the optimized FINDLUT); without it the
// full 720-entry expansion is returned (Algorithm 1 as written). Every
// call returns fresh Perm slices, carved from one backing array sized to
// the kept permutations, so callers may keep or hand them on.
func PermutedTables(f TT, dedup bool) []PermTable {
	out := make([]PermTable, 0, len(perms6))
	var seen map[TT]bool
	if dedup {
		seen = make(map[TT]bool, len(perms6))
	}
	for _, p := range perms6 {
		table := f.Permute(p)
		if dedup {
			if seen[table] {
				continue
			}
			seen[table] = true
		}
		out = append(out, PermTable{Table: table, Perm: p})
	}
	backing := make([]int, len(out)*MaxVars)
	for i, pt := range out {
		perm := backing[i*MaxVars : (i+1)*MaxVars : (i+1)*MaxVars]
		copy(perm, pt.Perm)
		out[i].Perm = perm
	}
	return out
}
