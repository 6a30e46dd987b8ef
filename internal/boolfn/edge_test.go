package boolfn

import (
	"strings"
	"testing"
)

// lift2 builds the 6-var table of a 2-var function given by its 4-entry
// truth table code (bit m = f(a1 = m&1, a2 = m>>1)).
func lift2(code uint8) TT {
	var f TT
	for m := uint(0); m < 64; m++ {
		idx := m & 3
		if code>>idx&1 == 1 {
			f |= 1 << m
		}
	}
	return f
}

func TestExhaustiveTwoVarFunctions(t *testing.T) {
	// All sixteen 2-variable functions: minimization round trips, P-class
	// partition is consistent, and XOR detection hits exactly XOR/XNOR.
	classTotal := map[TT]int{}
	for code := 0; code < 16; code++ {
		f := lift2(uint8(code))
		back, err := Parse(Minimize(f))
		if err != nil || back != f {
			t.Fatalf("code %x: minimize round trip failed (%v)", code, err)
		}
		classTotal[PClassCanon(f)]++
		pairs := XorPairs(f)
		isXorLike := code == 0b0110 || code == 0b1001
		hasPair01 := false
		for _, p := range pairs {
			if p == [2]int{0, 1} {
				hasPair01 = true
			}
		}
		if isXorLike && !hasPair01 {
			t.Fatalf("code %x: XOR structure not detected", code)
		}
		if !isXorLike && hasPair01 && f.DependsOn(0) && f.DependsOn(1) {
			t.Fatalf("code %x: spurious XOR pair", code)
		}
	}
	// 16 functions fall into 16/|classes| groups; every function counted.
	total := 0
	for _, n := range classTotal {
		total += n
	}
	if total != 16 {
		t.Fatalf("partition covers %d functions, want 16", total)
	}
}

func TestParseDeepNesting(t *testing.T) {
	expr := strings.Repeat("(", 200) + "a1" + strings.Repeat(")", 200)
	got, err := Parse(expr)
	if err != nil || got != A(1) {
		t.Fatalf("deep nesting failed: %v", err)
	}
}

func TestParseWhitespaceTorture(t *testing.T) {
	got, err := Parse("  a1   ^\t a2  \t^ a3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Xor(Xor(A(1), A(2)), A(3))
	if got != want {
		t.Fatal("whitespace handling broken")
	}
}

func TestPermutationsSeven(t *testing.T) {
	if got := len(Permutations(7)); got != 5040 {
		t.Fatalf("len(Permutations(7)) = %d", got)
	}
}

func TestPermutationsRejectsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > 8")
		}
	}()
	Permutations(9)
}

func TestCofactorConstants(t *testing.T) {
	for j := 0; j < MaxVars; j++ {
		if Const1.Cofactor(j, true) != Const1 || Const0.Cofactor(j, false) != Const0 {
			t.Fatal("constant cofactors wrong")
		}
	}
}

func TestSupportOfConstants(t *testing.T) {
	if _, n := Const0.Support(); n != 0 {
		t.Fatalf("const0 support %d", n)
	}
	if _, n := Const1.Support(); n != 0 {
		t.Fatalf("const1 support %d", n)
	}
}

func TestMintermsCount(t *testing.T) {
	f := MustParse("a1a2a3a4a5a6")
	ms := f.Minterms()
	if len(ms) != 1 || ms[0] != "111111" {
		t.Fatalf("Minterms = %v", ms)
	}
}

func TestPClassOfSymmetricFunctionIsSmall(t *testing.T) {
	// Fully symmetric functions are invariant under all permutations.
	parity := MustParse("a1^a2^a3^a4^a5^a6")
	if got := len(PClass(parity)); got != 1 {
		t.Fatalf("parity P-class size %d, want 1", got)
	}
}

func TestGatingHelperPolarities(t *testing.T) {
	// gating(3, 2, 1) = a4·ā5 (one positive, one negative control).
	got := gating(3, 2, 1)
	want := And(A(4), Not(A(5)))
	if got != want {
		t.Fatalf("gating = %v, want %v", got, want)
	}
}
