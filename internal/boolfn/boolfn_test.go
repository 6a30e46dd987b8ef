package boolfn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestVarTables(t *testing.T) {
	for j := 0; j < MaxVars; j++ {
		v := Var(j)
		for m := uint(0); m < 64; m++ {
			want := m>>uint(j)&1 == 1
			if v.Eval(m) != want {
				t.Fatalf("Var(%d).Eval(%d) = %v, want %v", j, m, v.Eval(m), want)
			}
		}
	}
}

func TestVarPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Var(6)
}

func TestConnectives(t *testing.T) {
	f, g := A(1), A(2)
	for m := uint(0); m < 64; m++ {
		a, b := f.Eval(m), g.Eval(m)
		if And(f, g).Eval(m) != (a && b) {
			t.Fatal("And mismatch")
		}
		if Or(f, g).Eval(m) != (a || b) {
			t.Fatal("Or mismatch")
		}
		if Xor(f, g).Eval(m) != (a != b) {
			t.Fatal("Xor mismatch")
		}
		if Not(f).Eval(m) != !a {
			t.Fatal("Not mismatch")
		}
	}
}

func TestMux(t *testing.T) {
	s, a, b := A(6), A(1), A(2)
	m := Mux(s, a, b)
	for i := uint(0); i < 64; i++ {
		want := b.Eval(i)
		if s.Eval(i) {
			want = a.Eval(i)
		}
		if m.Eval(i) != want {
			t.Fatalf("Mux mismatch at %d", i)
		}
	}
}

func TestCofactorShannon(t *testing.T) {
	// Shannon expansion: f = a_j·f|a_j=1 ⊕ ā_j·f|a_j=0 must reconstruct f.
	f := func(raw uint64, jRaw uint8) bool {
		tt := TT(raw)
		j := int(jRaw) % MaxVars
		rebuilt := Or(And(Var(j), tt.Cofactor(j, true)), And(Not(Var(j)), tt.Cofactor(j, false)))
		return rebuilt == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCofactorIndependent(t *testing.T) {
	f := func(raw uint64, jRaw uint8) bool {
		j := int(jRaw) % MaxVars
		c := TT(raw).Cofactor(j, true)
		return !c.DependsOn(j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	f := MustParse("(a1^a2^a3)a4a5!a6")
	mask, size := f.Support()
	if mask != 0b111111 || size != 6 {
		t.Fatalf("f2 support = %06b (%d), want all six variables", mask, size)
	}
	g := MustParse("a3a6")
	mask, size = g.Support()
	if mask != 0b100100 || size != 2 {
		t.Fatalf("a3a6 support = %06b (%d)", mask, size)
	}
}

func TestPermuteIdentityAndComposition(t *testing.T) {
	f := func(raw uint64) bool {
		tt := TT(raw)
		if tt.Permute([]int{0, 1, 2, 3, 4, 5}) != tt {
			return false
		}
		p := []int{2, 0, 1, 5, 3, 4}
		q := []int{1, 2, 0, 4, 5, 3} // inverse of p
		return tt.Permute(p).Permute(q) == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSwapsVariables(t *testing.T) {
	// Permuting a1 and a2 must map the function a1 to a2.
	got := A(1).Permute([]int{1, 0, 2, 3, 4, 5})
	if got != A(2) {
		t.Fatalf("swap permute of a1 = %v, want a2 %v", got, A(2))
	}
}

func TestPermutationsCount(t *testing.T) {
	counts := map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 720}
	for k, want := range counts {
		if got := len(Permutations(k)); got != want {
			t.Errorf("len(Permutations(%d)) = %d, want %d", k, got, want)
		}
	}
}

func TestPermutationsDistinct(t *testing.T) {
	seen := make(map[[6]int]bool)
	for _, p := range Permutations(6) {
		var key [6]int
		copy(key[:], p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
}

func TestPClassInvariance(t *testing.T) {
	f := func(raw uint64, pIdx uint16) bool {
		tt := TT(raw)
		p := Permutations(6)[int(pIdx)%720]
		return PClassCanon(tt) == PClassCanon(tt.Permute(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPClassSizeDivides720(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tt := TT(rng.Uint64())
		n := len(PClass(tt))
		if 720%n != 0 {
			t.Fatalf("P-class size %d of %v does not divide 720", n, tt)
		}
	}
}

func TestPEquivalent(t *testing.T) {
	f := MustParse("(a1^a2^a3)a4a5!a6")
	g := MustParse("(a4^a5^a6)a1a2!a3")
	if PClassCanon(f) != PClassCanon(g) {
		t.Fatal("input-permuted f2 variants not P-equivalent")
	}
	if PClassCanon(f) == PClassCanon(MustParse("(a1^a2^a3)a4a5a6")) {
		t.Fatal("f1 and f2 wrongly P-equivalent")
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		expr string
		want TT
	}{
		{"0", Const0},
		{"1", Const1},
		{"a1", A(1)},
		{"!a1", Not(A(1))},
		{"a1'", Not(A(1))},
		{"a1 & a2", And(A(1), A(2))},
		{"a1a2", And(A(1), A(2))},
		{"a1 ^ a2", Xor(A(1), A(2))},
		{"a1 | a2", Or(A(1), A(2))},
		{"a1 + a2", Or(A(1), A(2))},
		{"(a1^a2)a3", And(Xor(A(1), A(2)), A(3))},
		{"a6(a1a2 + !a1a3) + !a6(a1a4 + !a1a5)", Mux(A(6), Mux(A(1), A(2), A(3)), Mux(A(1), A(4), A(5)))},
	}
	for _, c := range cases {
		got, err := Parse(c.expr)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.expr, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{"", "a7", "a", "(a1", "a1 &", "a1 @ a2", "a1)b"} {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", expr)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than XOR binds tighter than OR.
	got := MustParse("a1 ^ a2a3 | a4")
	want := Or(Xor(A(1), And(A(2), A(3))), A(4))
	if got != want {
		t.Fatalf("precedence: got %v, want %v", got, want)
	}
}

func TestCandidatesCatalogue(t *testing.T) {
	cands := Candidates()
	if len(cands) != 21 {
		t.Fatalf("catalogue has %d rows, want 21", len(cands))
	}
	zt, s15 := 0, 0
	for _, c := range cands {
		switch c.Path {
		case "zt":
			zt++
		case "s15":
			s15++
		default:
			t.Fatalf("candidate %s has unknown path %q", c.Name, c.Path)
		}
	}
	if zt != 7 || s15 != 14 {
		t.Fatalf("path split %d/%d, want 7 z_t rows and 14 s15 rows", zt, s15)
	}
	// All 21 candidate functions must be pairwise distinct.
	seen := make(map[TT]string)
	for _, c := range cands {
		if prev, dup := seen[c.TT]; dup {
			t.Fatalf("candidates %s and %s share a truth table", prev, c.Name)
		}
		seen[c.TT] = c.Name
	}
}

func TestCandidateByName(t *testing.T) {
	c, ok := CandidateByName("f19")
	if !ok || c.TT != F19 {
		t.Fatal("CandidateByName(f19) mismatch")
	}
	if _, ok := CandidateByName("f99"); ok {
		t.Fatal("CandidateByName accepted f99")
	}
}

func TestAlphaFaultSemantics(t *testing.T) {
	// Setting a1 = a2 (so a1 ⊕ a2 = 0) in f8 must agree with F8Alpha on
	// every assignment — the fault models the XOR output stuck at 0.
	for m := uint(0); m < 64; m++ {
		if m>>0&1 != m>>1&1 {
			continue // only assignments with a1 = a2
		}
		if F8.Eval(m) != F8Alpha.Eval(m) {
			t.Fatalf("F8Alpha diverges from f8|v=0 at %06b", m)
		}
		if F19.Eval(m) != F19Alpha.Eval(m) {
			t.Fatalf("F19Alpha diverges from f19|v=0 at %06b", m)
		}
	}
}

func TestMuxFaultSemantics(t *testing.T) {
	// FMux2Alpha must equal FMux2 with a2 and a4 (the γ(K, IV) data
	// inputs selected when a1 = 1) forced to 0 and the control a1 free:
	// whenever a1 = 0 the outputs agree, and whenever a1 = 1 the faulty
	// MUX outputs 0.
	for m := uint(0); m < 64; m++ {
		if m&1 == 0 {
			if FMux2.Eval(m) != FMux2Alpha.Eval(m) {
				t.Fatalf("β fault changed shift path at %06b", m)
			}
		} else if FMux2Alpha.Eval(m) {
			t.Fatalf("β fault still loads data at %06b", m)
		}
	}
}

func TestF2AlphaKeep(t *testing.T) {
	if F2AlphaKeep(2) != F2Alpha {
		t.Fatal("F2AlphaKeep(2) should equal the catalogue F2Alpha (keep a3)")
	}
	for keep := 0; keep < 3; keep++ {
		f := F2AlphaKeep(keep)
		if f.DependsOn((keep+1)%3) || f.DependsOn((keep+2)%3) {
			t.Fatalf("F2AlphaKeep(%d) still depends on a removed XOR input", keep)
		}
	}
}

func TestDualLUTPackRoundTrip(t *testing.T) {
	f := func(lo, hi uint32) bool {
		d := DualLUT{O5: TT5(lo), O6: TT5(hi)}
		return SplitDual(d.Pack()) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShared5(t *testing.T) {
	if !Shared5(MustParse("a1^a2")) {
		t.Fatal("a1^a2 should be realizable in dual mode")
	}
	if Shared5(MustParse("a1^a6")) {
		t.Fatal("a1^a6 depends on a6")
	}
}

func TestLower5Shrink5RoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		return Shrink5(Lower5(TT5(raw))) == TT5(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShrink5Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Shrink5(A(6))
}

func TestIsXor2Half(t *testing.T) {
	// Every pair (i, j) of distinct 5-input variables forms a valid hit.
	for i := 1; i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			x := Xor(A(i), A(j))
			if !IsXor2Half(Shrink5(x)) {
				t.Errorf("a%d^a%d not recognized as 2-input XOR half", i, j)
			}
		}
	}
	for _, expr := range []string{"a1^a2^a3", "a1a2", "a1", "0", "1"} {
		f := MustParse(expr)
		if f.DependsOn(5) {
			continue
		}
		if IsXor2Half(Shrink5(f)) {
			t.Errorf("%s wrongly recognized as 2-input XOR", expr)
		}
	}
}

func TestDualXorCandidate(t *testing.T) {
	// XOR on O5, arbitrary 5-var function on O6.
	d := DualLUT{O5: Shrink5(Xor(A(1), A(2))), O6: TT5(0xDEADBEEF)}
	if !DualXorCandidate(d.Pack()) {
		t.Fatal("dual LUT with XOR half not detected")
	}
	if DualXorCandidate(MustParse("a1a2a3")) {
		t.Fatal("AND3 wrongly detected as dual-XOR candidate")
	}
}

func TestFormatRoundTripViaParse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tt := TT(rng.Uint64())
		s := Format(tt)
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Format produced unparseable %q: %v", s, err)
		}
		if back != tt {
			t.Fatalf("Format/Parse round trip failed for %v via %q", tt, s)
		}
	}
}

func TestOnSet(t *testing.T) {
	if Const0.OnSet() != 0 || Const1.OnSet() != 64 || A(1).OnSet() != 32 {
		t.Fatal("OnSet counts wrong")
	}
}

func BenchmarkPermute(b *testing.B) {
	f := F2
	p := []int{2, 0, 1, 5, 3, 4}
	for i := 0; i < b.N; i++ {
		f = f.Permute(p)
	}
	_ = f
}

func BenchmarkPClassCanon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = PClassCanon(F2)
	}
}

func TestGeneratedCatalogueMatchesTableII(t *testing.T) {
	// The Section VI-B generator must reproduce the 21 hardcoded Table II
	// rows exactly, as P-equivalence classes.
	gen := GenerateCatalogue()
	if len(gen) != 21 {
		t.Fatalf("generator produced %d candidates, want 21", len(gen))
	}
	genClasses := map[TT]bool{}
	for _, g := range gen {
		genClasses[PClassCanon(g)] = true
	}
	if len(genClasses) != 21 {
		t.Fatalf("generator produced %d distinct classes, want 21", len(genClasses))
	}
	for _, c := range Candidates() {
		if !genClasses[PClassCanon(c.TT)] {
			t.Errorf("Table II row %s (%s) not produced by the generator", c.Name, c.Expr)
		}
	}
}

func TestGenerateZCandidatesPolarityCounts(t *testing.T) {
	// c+1 polarity multisets per control count (the paper's observation
	// that permutations collapse 2^c choices to c+1).
	got := GenerateZCandidates(3, 2, 3)
	if len(got) != (3+1)+(2+1) {
		t.Fatalf("got %d candidates for c ∈ {2,3}, want 7", len(got))
	}
	seen := map[TT]bool{}
	for _, g := range got {
		canon := PClassCanon(g)
		if seen[canon] {
			t.Fatal("duplicate P-class in generated z candidates")
		}
		seen[canon] = true
	}
}

func TestGenerateZCandidatesBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too many inputs")
		}
	}()
	GenerateZCandidates(4, 3, 3)
}

func TestMinimizeRoundTrip(t *testing.T) {
	// The minimized SOP must parse back to exactly the same function.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		tt := TT(rng.Uint64())
		s := Minimize(tt)
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Minimize produced unparseable %q: %v", s, err)
		}
		if back != tt {
			t.Fatalf("Minimize round trip failed: %v → %q → %v", tt, s, back)
		}
	}
}

func TestMinimizeKnownForms(t *testing.T) {
	cases := map[string]string{
		"0":       Minimize(Const0),
		"1":       Minimize(Const1),
		"a3":      Minimize(A(3)),
		"a1a2":    Minimize(And(A(1), A(2))),
		"a1 + a2": Minimize(Or(A(1), A(2))),
		"a1'":     Minimize(Not(A(1))),
	}
	for want, got := range cases {
		if got != want {
			t.Errorf("Minimize = %q, want %q", got, want)
		}
	}
	// XOR2 has exactly two products.
	if got := Minimize(Xor(A(1), A(2))); strings.Count(got, "+") != 1 {
		t.Errorf("Minimize(a1^a2) = %q, want two products", got)
	}
}

func TestMinimizeNoLargerThanExactSOP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		tt := TT(rng.Uint64())
		min := strings.Count(Minimize(tt), "+")
		exact := strings.Count(Format(tt), "+")
		if min > exact {
			t.Fatalf("Minimize has %d products, exact SOP %d for %v", min+1, exact+1, tt)
		}
	}
}

func TestMinimizeCoversPrimesOnly(t *testing.T) {
	// Every product of the f2 minimization must be an implicant of f2.
	f := F2
	s := Minimize(f)
	for _, term := range strings.Split(s, " + ") {
		p, err := Parse(term)
		if err != nil {
			t.Fatal(err)
		}
		if And(p, f) != p {
			t.Fatalf("product %q is not an implicant of f2", term)
		}
	}
}

func TestXorPairsOnCatalogue(t *testing.T) {
	// f2's XOR trio gives three pairs; f8/f19 expose exactly (a1, a2).
	if got := XorPairs(F2); len(got) != 3 {
		t.Fatalf("XorPairs(f2) = %v, want the 3 trio pairs", got)
	}
	for _, f := range []TT{F8, F19} {
		got := XorPairs(f)
		if len(got) != 1 || got[0] != [2]int{0, 1} {
			t.Fatalf("XorPairs = %v, want [(a1,a2)]", got)
		}
	}
	if got := XorPairs(And(A(1), A(2))); len(got) != 0 {
		t.Fatalf("AND2 has xor pairs %v", got)
	}
}

func TestXorGroupsTrio(t *testing.T) {
	groups := XorGroups(F2)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("XorGroups(f2) = %v, want one group of 3", groups)
	}
	if groups[0][0] != 0 || groups[0][1] != 1 || groups[0][2] != 2 {
		t.Fatalf("XorGroups(f2) = %v, want {a1,a2,a3}", groups)
	}
}

func TestXorPairsRandomizedConsistency(t *testing.T) {
	// Any function constructed as (ai ⊕ aj)·g ⊕ h with g, h independent
	// of ai, aj must expose the pair.
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(6)
		j := (i + 1 + rng.Intn(5)) % 6
		// Random g, h over the other four variables.
		g := TT(rng.Uint64())
		h := TT(rng.Uint64())
		for _, v := range []int{i, j} {
			g = g.Cofactor(v, false)
			h = h.Cofactor(v, false)
		}
		f := Xor(And(Xor(Var(i), Var(j)), g), h)
		found := false
		for _, p := range XorPairs(f) {
			if (p[0] == i && p[1] == j) || (p[0] == j && p[1] == i) {
				found = true
			}
		}
		if !found && f.DependsOn(i) {
			t.Fatalf("trial %d: constructed pair (%d,%d) not detected in %v", trial, i, j, f)
		}
	}
}

func TestStuckXorZeroMatchesCatalogueFaults(t *testing.T) {
	// The generic stuck-at-0 fault must reproduce the paper's eq. (1).
	if got := StuckXorZero(F8, []int{0, 1}); got != F8Alpha {
		t.Fatalf("StuckXorZero(f8) = %v, want a6", got)
	}
	if got := StuckXorZero(F19, []int{0, 1}); got != F19Alpha {
		t.Fatalf("StuckXorZero(f19) = %v, want a3a6", got)
	}
	// For f2's trio, sticking (a1, a2) keeps a3's path: the generic form
	// of F2AlphaKeep(2).
	if got := StuckXorZero(F2, []int{0, 1}); got != F2AlphaKeep(2) {
		t.Fatalf("StuckXorZero(f2, {a1,a2}) = %v, want a3a4a5!a6", got)
	}
}

func TestFlipVarInvolution(t *testing.T) {
	f := func(raw uint64, jRaw uint8) bool {
		j := int(jRaw) % MaxVars
		tt := TT(raw)
		return FlipVar(FlipVar(tt, j), j) == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipVarSemantics(t *testing.T) {
	// FlipVar(f, j) evaluated at m equals f at m with bit j toggled.
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 30; trial++ {
		tt := TT(rng.Uint64())
		j := rng.Intn(MaxVars)
		g := FlipVar(tt, j)
		for m := uint(0); m < 64; m++ {
			if g.Eval(m) != tt.Eval(m^(1<<uint(j))) {
				t.Fatalf("FlipVar wrong at m=%d j=%d", m, j)
			}
		}
	}
}

func TestNPNCanonInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 15; trial++ {
		tt := TT(rng.Uint64())
		canon := NPNCanon(tt)
		// Random NPN transform: permute, flip inputs, maybe flip output.
		g := tt.Permute(Permutations(6)[rng.Intn(720)])
		for j := 0; j < MaxVars; j++ {
			if rng.Intn(2) == 1 {
				g = FlipVar(g, j)
			}
		}
		if rng.Intn(2) == 1 {
			g = Not(g)
		}
		if NPNCanon(g) != canon {
			t.Fatalf("trial %d: NPN canon not invariant", trial)
		}
	}
}

func TestNPNCoarserThanP(t *testing.T) {
	// All the AND2-with-polarities forms collapse to one NPN class but
	// occupy several P-classes.
	variants := []TT{
		And(A(1), A(2)),
		And(Not(A(1)), A(2)),
		And(Not(A(1)), Not(A(2))),
		Or(A(1), A(2)), // = ¬(¬a1·¬a2)
	}
	canon := NPNCanon(variants[0])
	pClasses := map[TT]bool{}
	for _, v := range variants {
		if NPNCanon(v) != canon {
			t.Fatalf("%v not NPN-equivalent to AND2", v)
		}
		pClasses[PClassCanon(v)] = true
	}
	if len(pClasses) < 3 {
		t.Fatalf("expected ≥ 3 P-classes among AND2 variants, got %d", len(pClasses))
	}
	// f2 and f1 (different gating polarity) merge under NPN.
	f1, _ := CandidateByName("f1")
	if !NPNEquivalent(F2, f1.TT) {
		t.Fatal("f1 and f2 should be NPN-equivalent (polarity variants)")
	}
}

func TestParseInit(t *testing.T) {
	f := F2
	got, err := ParseInit(f.String())
	if err != nil || got != f {
		t.Fatalf("ParseInit(String()) round trip failed: %v", err)
	}
	if _, err := ParseInit("64'hZZZ"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := ParseInit("64'h11112222333344445"); err == nil {
		t.Fatal("17 digits accepted")
	}
	v, err := ParseInit("0xff")
	if err != nil || v != TT(0xFF) {
		t.Fatal("0x prefix failed")
	}
}

func TestWalshParseval(t *testing.T) {
	// Parseval: Σ W[u]² = 64² for every Boolean function.
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		w := Walsh(TT(rng.Uint64()))
		sum := 0
		for _, c := range w {
			sum += c * c
		}
		if sum != 64*64 {
			t.Fatalf("Parseval violated: %d", sum)
		}
	}
}

func TestWalshKnownValues(t *testing.T) {
	// Constant 0: W[0] = 64, all else 0. A bare variable a1: W at index
	// u = 000001 is ±64, all else 0.
	w := Walsh(Const0)
	if w[0] != 64 {
		t.Fatalf("W[0] of const0 = %d", w[0])
	}
	for u := 1; u < 64; u++ {
		if w[u] != 0 {
			t.Fatalf("const0 spectrum leaks at %d", u)
		}
	}
	w = Walsh(A(1))
	if w[1] != -64 && w[1] != 64 {
		t.Fatalf("variable spectrum W[1] = %d", w[1])
	}
}

func TestSignatureIsPInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	perms := Permutations(6)
	for trial := 0; trial < 30; trial++ {
		f := TT(rng.Uint64())
		sig := Signature(f)
		g := f.Permute(perms[rng.Intn(720)])
		if !Signature(g).Equal(sig) {
			t.Fatalf("trial %d: signature not P-invariant", trial)
		}
	}
}

func TestSpectralPreFilterSoundness(t *testing.T) {
	// The pre-filter must never reject a genuinely P-equivalent pair and
	// must reject most random pairs.
	rng := rand.New(rand.NewSource(93))
	perms := Permutations(6)
	for trial := 0; trial < 20; trial++ {
		f := TT(rng.Uint64())
		g := f.Permute(perms[rng.Intn(720)])
		if !MaybePEquivalent(f, g) {
			t.Fatal("pre-filter rejected a P-equivalent pair")
		}
	}
	rejected := 0
	for trial := 0; trial < 40; trial++ {
		if !MaybePEquivalent(TT(rng.Uint64()), TT(rng.Uint64())) {
			rejected++
		}
	}
	if rejected < 35 {
		t.Fatalf("pre-filter rejected only %d/40 random pairs", rejected)
	}
	// Consistency with the exact check on the catalogue.
	for _, a := range Candidates() {
		for _, b := range Candidates() {
			if PClassCanon(a.TT) == PClassCanon(b.TT) && !MaybePEquivalent(a.TT, b.TT) {
				t.Fatalf("pre-filter contradicts exact check for %s/%s", a.Name, b.Name)
			}
		}
	}
}

func TestMuxSelectVars(t *testing.T) {
	if got := MuxSelectVars(MustParse("a1a2 + !a1a3")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("mux3 select vars = %v, want [a1]", got)
	}
	if got := MuxSelectVars(MustParse("a1(a2^a3) + !a1a4")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("mux-xor select vars = %v", got)
	}
	for _, f := range []TT{F2, F8, F19} {
		if got := MuxSelectVars(f); len(got) != 0 {
			t.Fatalf("catalogue function wrongly mux-classified: %v", got)
		}
	}
}

func TestZeroMuxBranch(t *testing.T) {
	mux := MustParse("a1a2 + !a1a3")
	if got := ZeroMuxBranch(mux, 0, true); got != MustParse("!a1a3") {
		t.Fatalf("ZeroMuxBranch sel1 = %v", got)
	}
	if got := ZeroMuxBranch(mux, 0, false); got != MustParse("a1a2") {
		t.Fatalf("ZeroMuxBranch sel0 = %v", got)
	}
}
