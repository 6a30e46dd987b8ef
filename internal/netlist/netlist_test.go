package netlist

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantsPreCreated(t *testing.T) {
	n := New()
	if n.Const(false) != 0 || n.Const(true) != 1 {
		t.Fatal("constants not at IDs 0 and 1")
	}
}

func TestConstantFolding(t *testing.T) {
	n := New()
	a := n.Input("a")
	if n.And(a, n.Const(false)) != n.Const(false) {
		t.Error("a·0 should fold to 0")
	}
	if n.And(a, n.Const(true)) != a {
		t.Error("a·1 should fold to a")
	}
	if n.Or(a, n.Const(true)) != n.Const(true) {
		t.Error("a+1 should fold to 1")
	}
	if n.Xor(a, a) != n.Const(false) {
		t.Error("a⊕a should fold to 0")
	}
	if n.Xor(a, n.Const(false)) != a {
		t.Error("a⊕0 should fold to a")
	}
	if n.Not(n.Not(a)) != a {
		t.Error("double negation should cancel")
	}
	if n.Mux(n.Const(true), a, n.Const(false)) != a {
		t.Error("mux with constant select should fold")
	}
	na := n.Not(a)
	if n.Mux(a, n.Const(false), n.Const(true)) != na {
		t.Error("mux(a, 0, 1) should fold to ¬a")
	}
}

func TestStructuralHashing(t *testing.T) {
	n := New()
	a, b := n.Input("a"), n.Input("b")
	g1 := n.And(a, b)
	g2 := n.And(b, a) // commuted
	if g1 != g2 {
		t.Fatal("commuted AND not shared")
	}
	g3 := n.Xor(a, b)
	g4 := n.Xor(a, b)
	if g3 != g4 {
		t.Fatal("identical XOR not shared")
	}
}

func TestCombinationalSim(t *testing.T) {
	n := New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	n.Output("f", n.Mux(c, n.Xor(a, b), n.And(a, b)))
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		av, bv, cv := m&1 == 1, m&2 == 2, m&4 == 4
		sim.SetInput(a, av)
		sim.SetInput(b, bv)
		sim.SetInput(c, cv)
		sim.Settle()
		want := av && bv
		if cv {
			want = av != bv
		}
		if sim.Output("f") != want {
			t.Fatalf("m=%d: f=%v, want %v", m, sim.Output("f"), want)
		}
	}
}

func TestFFCounterSequence(t *testing.T) {
	// 2-bit counter built from flip-flops: checks Step latching order.
	n := New()
	q0 := n.NewFF("q0", false)
	q1 := n.NewFF("q1", false)
	n.ConnectFF(q0, n.Not(q0))
	n.ConnectFF(q1, n.Xor(q1, q0))
	n.Output("b0", q0)
	n.Output("b1", q1)
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 8; cycle++ {
		sim.Settle()
		got := 0
		if sim.Output("b0") {
			got |= 1
		}
		if sim.Output("b1") {
			got |= 2
		}
		if got != cycle%4 {
			t.Fatalf("cycle %d: counter reads %d", cycle, got)
		}
		sim.Step()
	}
}

func TestFFInitValue(t *testing.T) {
	n := New()
	q := n.NewFF("q", true)
	n.ConnectFF(q, n.Const(false))
	n.Output("o", q)
	sim, _ := NewSim(n)
	sim.Settle()
	if !sim.Output("o") {
		t.Fatal("init value not honored")
	}
	sim.Step()
	sim.Settle()
	if sim.Output("o") {
		t.Fatal("FF did not latch new value")
	}
	sim.Reset()
	sim.Settle()
	if !sim.Output("o") {
		t.Fatal("Reset did not restore init value")
	}
}

func TestBRAMLookup(t *testing.T) {
	n := New()
	addr := n.InputWord("addr", 4)
	content := make([]uint64, 16)
	for i := range content {
		content[i] = uint64(i * 7 % 16)
	}
	out := n.NewBRAM("rom", addr, 4, content)
	for i, o := range out {
		n.Output([]string{"o0", "o1", "o2", "o3"}[i], o)
	}
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		sim.SetInputWord(addr, a)
		sim.Settle()
		got := sim.WordValue(out)
		if got != content[a] {
			t.Fatalf("rom[%d] = %d, want %d", a, got, content[a])
		}
	}
}

func TestBRAMContentSizeChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New()
	addr := n.InputWord("addr", 4)
	n.NewBRAM("rom", addr, 4, make([]uint64, 8))
}

func TestAddWordMod2w(t *testing.T) {
	n := New()
	a := n.InputWord("a", 8)
	b := n.InputWord("b", 8)
	sum := n.AddWord(a, b)
	n.OutputWord("s", sum)
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		av, bv := rng.Uint64()&0xff, rng.Uint64()&0xff
		sim.SetInputWord(a, av)
		sim.SetInputWord(b, bv)
		sim.Settle()
		if got := sim.OutputWord("s", 8); got != (av+bv)&0xff {
			t.Fatalf("%d+%d = %d, want %d", av, bv, got, (av+bv)&0xff)
		}
	}
}

func TestAdd32Property(t *testing.T) {
	n := New()
	a := n.InputWord("a", 32)
	b := n.InputWord("b", 32)
	n.OutputWord("s", n.AddWord(a, b))
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(av, bv uint32) bool {
		sim.SetInputWord(a, uint64(av))
		sim.SetInputWord(b, uint64(bv))
		sim.Settle()
		return uint32(sim.OutputWord("s", 32)) == av+bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftBytes(t *testing.T) {
	n := New()
	a := n.InputWord("a", 32)
	n.OutputWord("l", n.ShiftLeftBytes(a, 1))
	n.OutputWord("r", n.ShiftRightBytes(a, 1))
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	v := uint64(0xDEADBEEF)
	sim.SetInputWord(a, v)
	sim.Settle()
	if got := sim.OutputWord("l", 32); got != (v<<8)&0xFFFFFFFF {
		t.Fatalf("left shift got %08x", got)
	}
	if got := sim.OutputWord("r", 32); got != v>>8 {
		t.Fatalf("right shift got %08x", got)
	}
}

func TestMuxWordAndConstWord(t *testing.T) {
	n := New()
	s := n.Input("s")
	a := n.ConstWord(0xAA, 8)
	b := n.ConstWord(0x55, 8)
	n.OutputWord("m", n.MuxWord(s, a, b))
	sim, _ := NewSim(n)
	sim.SetInput(s, true)
	sim.Settle()
	if sim.OutputWord("m", 8) != 0xAA {
		t.Fatal("mux select 1 wrong")
	}
	sim.SetInput(s, false)
	sim.Settle()
	if sim.OutputWord("m", 8) != 0x55 {
		t.Fatal("mux select 0 wrong")
	}
}

func TestValidateCatchesUnwiredFF(t *testing.T) {
	n := New()
	n.NewFF("q", false)
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted unwired flip-flop")
	}
	if _, err := NewSim(n); err == nil {
		t.Fatal("NewSim accepted unwired flip-flop")
	}
}

func TestTrFaninCone(t *testing.T) {
	n := New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	x := n.Xor(a, b)
	y := n.And(x, c)
	_ = n.Or(a, c) // outside the cone of y
	cone := n.TrFanin(y)
	want := map[NodeID]bool{a: true, b: true, c: true, x: true, y: true}
	if len(cone) != len(want) {
		t.Fatalf("cone size %d, want %d", len(cone), len(want))
	}
	for _, id := range cone {
		if !want[id] {
			t.Fatalf("unexpected node %d in cone", id)
		}
	}
}

func TestStats(t *testing.T) {
	n := New()
	a, b := n.Input("a"), n.Input("b")
	n.Output("f", n.And(n.Xor(a, b), a))
	s := n.ComputeStats()
	if s.PIs != 2 || s.POs != 1 || s.Gates[OpXor] != 1 || s.Gates[OpAnd] != 1 || s.Levels != 2 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestFanoutCount(t *testing.T) {
	n := New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	x := n.Xor(a, b)
	n.And(x, c)
	n.Or(x, c)
	if n.Fanout(x) != 2 {
		t.Fatalf("fanout(x) = %d, want 2", n.Fanout(x))
	}
}

func TestWriteStructuralDeterministic(t *testing.T) {
	build := func() string {
		n := New()
		a, b := n.Input("a"), n.Input("b")
		n.Output("f", n.Xor(a, b))
		var buf bytes.Buffer
		if err := n.WriteStructural(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build() != build() {
		t.Fatal("structural output not deterministic")
	}
	if !strings.Contains(build(), "xor") {
		t.Fatal("structural output missing gate")
	}
}

func TestTopologicalViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New()
	n.addNode(Node{Op: OpAnd, Fanin: []NodeID{99, 100}})
}

func BenchmarkSim32BitAdder(b *testing.B) {
	n := New()
	x := n.InputWord("a", 32)
	y := n.InputWord("b", 32)
	n.OutputWord("s", n.AddWord(x, y))
	sim, err := NewSim(n)
	if err != nil {
		b.Fatal(err)
	}
	sim.SetInputWord(x, 0x12345678)
	sim.SetInputWord(y, 0x9ABCDEF0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Settle()
	}
}

func TestAdderPrimitive(t *testing.T) {
	n := New()
	a := n.InputWord("a", 16)
	b := n.InputWord("b", 16)
	sum := n.NewAdder("add", a, b)
	n.OutputWord("s", sum)
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(av, bv uint16) bool {
		sim.SetInputWord(a, uint64(av))
		sim.SetInputWord(b, uint64(bv))
		sim.Settle()
		return uint16(sim.OutputWord("s", 16)) == av+bv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdderMatchesRippleGates(t *testing.T) {
	n := New()
	a := n.InputWord("a", 8)
	b := n.InputWord("b", 8)
	n.OutputWord("prim", n.NewAdder("add", a, b))
	n.OutputWord("gate", n.AddWord(a, b))
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	for av := uint64(0); av < 256; av += 7 {
		for bv := uint64(0); bv < 256; bv += 11 {
			sim.SetInputWord(a, av)
			sim.SetInputWord(b, bv)
			sim.Settle()
			if sim.OutputWord("prim", 8) != sim.OutputWord("gate", 8) {
				t.Fatalf("adder primitive diverges from ripple gates at %d+%d", av, bv)
			}
		}
	}
}

func TestStructuralRoundTrip(t *testing.T) {
	n := New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	q := n.NewFF("state", true)
	x := n.Xor(a, b)
	m := n.Mux(c, x, q)
	n.ConnectFF(q, m)
	n.Output("out", m)
	n.Output("tap", x)

	var buf bytes.Buffer
	if err := n.WriteStructural(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	back, err := ReadStructural(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ReadStructural: %v\n%s", err, first)
	}
	var buf2 bytes.Buffer
	if err := back.WriteStructural(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("round trip not stable:\n--- first ---\n%s--- second ---\n%s", first, buf2.String())
	}

	// Behavioural equivalence over a few cycles.
	simA, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewSim(back)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for cycle := 0; cycle < 16; cycle++ {
		av, bv, cv := rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1
		simA.SetInput(a, av)
		simB.SetInput(back.PIs[0], av)
		simA.SetInput(b, bv)
		simB.SetInput(back.PIs[1], bv)
		simA.SetInput(c, cv)
		simB.SetInput(back.PIs[2], cv)
		simA.Settle()
		simB.Settle()
		if simA.Output("out") != simB.Output("out") || simA.Output("tap") != simB.Output("tap") {
			t.Fatalf("cycle %d: outputs diverge", cycle)
		}
		simA.Step()
		simB.Step()
	}
}

func TestReadStructuralErrors(t *testing.T) {
	cases := []string{
		"n5 = xor(n2, n3)",      // undefined nets
		"garbage line",          // no '='
		"n2 = frob(n0, n1)",     // unknown op
		"n2 = xor(n0)",          // wrong arity
		"output x = n99",        // undefined output source
		"ff n0 <= n99",          // undefined ff data
		"n2 = bram[0].bit0 rom", // payload-bearing op
	}
	for _, src := range cases {
		if _, err := ReadStructural(strings.NewReader(src)); err == nil {
			t.Errorf("ReadStructural accepted %q", src)
		}
	}
}

func TestReadStructuralIgnoresCommentsAndBlank(t *testing.T) {
	src := "# a comment\n\nn2 = pi a\nn3 = not(n2)\noutput f = n3\n"
	n, err := ReadStructural(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 1 || len(n.POs) != 1 {
		t.Fatal("parse missed declarations")
	}
}

func TestEmptyNetworkValidAndSimulable(t *testing.T) {
	n := New()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.Settle()
	sim.Step()
}

func TestOutputOverwriteKeepsDeclarationOrder(t *testing.T) {
	n := New()
	a, b := n.Input("a"), n.Input("b")
	n.Output("f", a)
	n.Output("g", b)
	n.Output("f", b) // redefinition must not duplicate the name
	names := n.OutputNames()
	if len(names) != 2 || names[0] != "f" || names[1] != "g" {
		t.Fatalf("output names %v", names)
	}
	if n.POs["f"] != b {
		t.Fatal("redefinition did not take effect")
	}
}

func TestZeroAddressBRAM(t *testing.T) {
	// Zero-address BRAMs are constants-from-bitstream (the key ROMs).
	n := New()
	out := n.NewBRAM("konst", nil, 8, []uint64{0xA5})
	n.OutputWord("k", Word(out))
	sim, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.Settle()
	if got := sim.OutputWord("k", 8); got != 0xA5 {
		t.Fatalf("constant ROM reads %02x", got)
	}
}

func TestMuxWordWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New()
	n.MuxWord(n.Input("s"), n.ConstWord(0, 4), n.ConstWord(0, 5))
}

func TestSimValueAfterPartialEval(t *testing.T) {
	n := New()
	a := n.Input("a")
	x := n.Not(a)
	n.Output("o", x)
	sim, _ := NewSim(n)
	sim.SetInput(a, false)
	sim.Settle()
	if !sim.Value(x) {
		t.Fatal("Value probe wrong")
	}
}

func TestByteHelper(t *testing.T) {
	n := New()
	w := n.InputWord("w", 32)
	b2 := w.Byte(2)
	if len(b2) != 8 || b2[0] != w[16] {
		t.Fatal("Byte() slicing wrong")
	}
}

// Stats summarizes the network composition.
type Stats struct {
	Nodes  int
	Gates  map[Op]int
	FFs    int
	BRAMs  int
	PIs    int
	POs    int
	Levels int
}

// ComputeStats counts node kinds and the combinational depth (unit delay,
// gates only).
func (n *Netlist) ComputeStats() Stats {
	s := Stats{Nodes: len(n.Nodes), Gates: make(map[Op]int), FFs: len(n.FFs),
		BRAMs: len(n.BRAMs), PIs: len(n.PIs), POs: len(n.POs)}
	level := make([]int, len(n.Nodes))
	for id, nd := range n.Nodes {
		if nd.Op.IsGate() {
			s.Gates[nd.Op]++
			max := 0
			for _, f := range nd.Fanin {
				if level[f] > max {
					max = level[f]
				}
			}
			level[id] = max + 1
			if level[id] > s.Levels {
				s.Levels = level[id]
			}
		}
	}
	return s
}

// TrFanin returns the transitive fanin cone of id (gates, stopping at
// PIs, constants, FF outputs and BRAM ports), sorted ascending.
func (n *Netlist) TrFanin(id NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var stack []NodeID
	push := func(v NodeID) {
		if !seen[v] {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	push(id)
	var cone []NodeID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cone = append(cone, v)
		if n.Nodes[v].Op.IsGate() {
			for _, f := range n.Nodes[v].Fanin {
				push(f)
			}
		}
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}
