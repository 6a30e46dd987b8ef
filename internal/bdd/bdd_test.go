package bdd

import (
	"math/bits"
	"math/rand"
	"testing"

	"snowbma/internal/boolfn"
)

// buildTT constructs the BDD of a 6-variable truth table with variable i
// at level i, by Shannon expansion.
func buildTT(t *testing.T, m *Manager, tt boolfn.TT) Ref {
	t.Helper()
	var rec func(f boolfn.TT, level int) Ref
	rec = func(f boolfn.TT, level int) Ref {
		if level == boolfn.MaxVars {
			return m.Const(f&1 == 1)
		}
		lo := rec(f.Cofactor(level, false), level+1)
		hi := rec(f.Cofactor(level, true), level+1)
		v, err := m.Var(level)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Ite(v, hi, lo)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return rec(tt, 0)
}

func TestCanonicity(t *testing.T) {
	// Equal functions built through different formulas share one node.
	m := New(0)
	a, _ := m.Var(0)
	b, _ := m.Var(1)
	ab, err := m.And(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// a ∧ b == ¬(¬a ∨ ¬b)
	na, _ := m.Not(a)
	nb, _ := m.Not(b)
	or, err := m.Or(na, nb)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := m.Not(or)
	if err != nil {
		t.Fatal(err)
	}
	if ab != alt {
		t.Fatal("canonical form violated: a∧b ≠ ¬(¬a∨¬b)")
	}
}

func TestAgainstTruthTables(t *testing.T) {
	// Random 6-var truth tables: the BDD must evaluate identically on
	// all 64 assignments, and equal tables must produce equal refs.
	m := New(0)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		tt := boolfn.TT(rng.Uint64())
		f := buildTT(t, m, tt)
		for a := uint(0); a < 64; a++ {
			got := m.Eval(f, func(level int) bool { return a>>uint(level)&1 == 1 })
			if got != tt.Eval(a) {
				t.Fatalf("trial %d: BDD wrong at %06b", trial, a)
			}
		}
		if g := buildTT(t, m, tt); g != f {
			t.Fatalf("trial %d: rebuilding the same table gave a different ref", trial)
		}
		if cnt := m.SatCountBounded(f, 6); int(cnt) != bits.OnesCount64(uint64(tt)) {
			t.Fatalf("trial %d: satcount %v != onset %d", trial, cnt, bits.OnesCount64(uint64(tt)))
		}
	}
}

func TestXorChainLinearSize(t *testing.T) {
	// Parity of n variables has a linear-size BDD — the property that
	// keeps the SNOW 3G XOR trees cheap to verify.
	m := New(0)
	acc := m.Const(false)
	for i := 0; i < 64; i++ {
		v, err := m.Var(i)
		if err != nil {
			t.Fatal(err)
		}
		acc, err = m.Xor(acc, v)
		if err != nil {
			t.Fatal(err)
		}
	}
	// The manager retains intermediate nodes (no garbage collection), so
	// measure the size reachable from the final function.
	reach := map[Ref]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if reach[r] || r == False || r == True {
			return
		}
		reach[r] = true
		walk(m.nodes[r].lo)
		walk(m.nodes[r].hi)
	}
	walk(acc)
	if len(reach) > 2*64 {
		t.Fatalf("parity BDD has %d reachable nodes, expected ≤ 128", len(reach))
	}
	if m.Eval(acc, func(int) bool { return true }) != false {
		t.Fatal("parity of 64 ones should be 0")
	}
}

func TestNodeLimit(t *testing.T) {
	m := New(16)
	// The multiplication-like function blows past 16 nodes quickly.
	acc := m.Const(false)
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		var v Ref
		v, err = m.Var(i)
		if err != nil {
			break
		}
		var w Ref
		w, err = m.Var(i + 10)
		if err != nil {
			break
		}
		var prod Ref
		prod, err = m.And(v, w)
		if err != nil {
			break
		}
		acc, err = m.Xor(acc, prod)
	}
	if err == nil {
		t.Fatal("node limit never triggered")
	}
}

func TestIteBasics(t *testing.T) {
	m := New(0)
	s, _ := m.Var(0)
	a, _ := m.Var(1)
	b, _ := m.Var(2)
	f, err := m.Ite(s, a, b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s, a, b, want bool
	}{{true, true, false, true}, {true, false, true, false}, {false, true, false, false}, {false, false, true, true}}
	for _, c := range cases {
		vals := map[int]bool{0: c.s, 1: c.a, 2: c.b}
		if m.Eval(f, func(l int) bool { return vals[l] }) != c.want {
			t.Fatalf("ite(%v,%v,%v) wrong", c.s, c.a, c.b)
		}
	}
}
