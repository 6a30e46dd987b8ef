package boolfn

import (
	"slices"
	"strings"
	"testing"
)

// permuteBitSerial is Permute by its definition: minterm m of the result
// reads minterm src of f, where src sets bit perm[j] for every bit j set
// in m (short permutations extended with the identity). Permute's masked
// swaps must equal it.
func permuteBitSerial(f TT, perm []int) TT {
	var p [MaxVars]int
	for j := 0; j < MaxVars; j++ {
		p[j] = j
	}
	copy(p[:], perm)
	var out TT
	for m := uint(0); m < 64; m++ {
		var src uint
		for j := uint(0); j < MaxVars; j++ {
			if m>>j&1 == 1 {
				src |= 1 << uint(p[j])
			}
		}
		out |= TT(f>>src&1) << m
	}
	return out
}

// Permute is GF(2)-linear in the table (it moves bits, never combines
// them), so agreeing with the oracle on the 64 unit tables proves it for
// every table.
func TestPermuteMatchesBitSerial(t *testing.T) {
	perms := append(Permutations(MaxVars), []int{}, []int{1, 0}, []int{2, 0, 1})
	for _, p := range perms {
		for i := uint(0); i < 64; i++ {
			f := TT(1) << i
			if got, want := f.Permute(p), permuteBitSerial(f, p); got != want {
				t.Fatalf("(%v).Permute(%v) = %v, bit-serial %v", f, p, got, want)
			}
		}
	}
}

func TestPermuteRejectsNonPermutations(t *testing.T) {
	for _, p := range [][]int{
		{0, 0, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 6},
		{-1},
		{1},
		{0, 1, 2, 3, 4, 5, 6},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "boolfn:") {
					t.Errorf("Permute(%v) panic = %q, want a boolfn: message", p, msg)
				}
			}()
			F2.Permute(p)
		}()
	}
}

// PermutedTables walks the shared perms6 in Permutations order and hands
// out Perm slices the caller owns.
func TestPermutedTablesOrderAndFreshPerms(t *testing.T) {
	all := Permutations(MaxVars)
	got := PermutedTables(F2, false)
	if len(got) != len(all) {
		t.Fatalf("full expansion has %d tables, want %d", len(got), len(all))
	}
	for i, pt := range got {
		if !slices.Equal(pt.Perm, all[i]) || pt.Table != F2.Permute(all[i]) {
			t.Fatalf("entry %d = %v %v, want %v %v", i, pt.Perm, pt.Table, all[i], F2.Permute(all[i]))
		}
	}
	got[0].Perm[0] = 5
	got[0].Perm = append(got[0].Perm, 9)
	if !slices.Equal(got[1].Perm, all[1]) || !slices.Equal(perms6[0], all[0]) {
		t.Fatal("writing one returned Perm changed another or the shared order")
	}
	if again := PermutedTables(F2, false); !slices.Equal(again[0].Perm, all[0]) {
		t.Fatalf("a later call sees %v, want %v", again[0].Perm, all[0])
	}
}
