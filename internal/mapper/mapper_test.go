package mapper

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"snowbma/internal/boolfn"
	"snowbma/internal/netlist"
)

// buildRandom constructs a random combinational netlist with nIn inputs
// and nGates gates, returning the network (all sink gates become outputs).
func buildRandom(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	n := netlist.New()
	pool := make([]netlist.NodeID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		pool = append(pool, n.Input("in"))
	}
	for g := 0; g < nGates; g++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		var id netlist.NodeID
		switch rng.Intn(5) {
		case 0:
			id = n.And(a, b)
		case 1:
			id = n.Or(a, b)
		case 2:
			id = n.Xor(a, b)
		case 3:
			id = n.Not(a)
		default:
			c := pool[rng.Intn(len(pool))]
			id = n.Mux(a, b, c)
		}
		pool = append(pool, id)
	}
	// Expose the last few nets as outputs so there is logic to map.
	for i := 0; i < 4 && i < len(pool); i++ {
		n.Output("o"+string(rune('a'+i)), pool[len(pool)-1-i])
	}
	return n
}

func TestMapSimpleEquivalence(t *testing.T) {
	n := netlist.New()
	a, b, c, d := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("d")
	f := n.Xor(n.And(a, b), n.Or(c, d))
	n.Output("f", f)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LUTs) != 1 {
		t.Fatalf("4-input function should map to 1 LUT, got %d", len(r.LUTs))
	}
	if err := r.Verify(64, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMapRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		n := buildRandom(rng, 8, 120)
		for _, k := range []int{4, 6} {
			r, err := Map(n, Options{K: k})
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if err := r.Verify(48, int64(trial)); err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
		}
	}
}

func TestMapXorChainDepth(t *testing.T) {
	// A 16-input XOR chain has 15 gates in a line; covering 5 chain gates
	// per 6-input cut gives the depth-optimal ⌈15/5⌉ = 3 levels (cut-based
	// mapping covers cones, it does not rebalance the chain).
	n := netlist.New()
	acc := n.Input("x0")
	for i := 1; i < 16; i++ {
		acc = n.Xor(acc, n.Input("xi"))
	}
	n.Output("p", acc)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth > 3 {
		t.Fatalf("XOR16 chain mapped with depth %d, want ≤ 3", r.Depth)
	}
	if err := r.Verify(64, 2); err != nil {
		t.Fatal(err)
	}
	// The root LUT must implement a pure parity of its inputs.
	root := r.LUTIndex[acc]
	fn := r.LUTs[root].Fn
	var parity boolfn.TT
	for i := range r.LUTs[root].Inputs {
		parity = boolfn.Xor(parity, boolfn.Var(i))
	}
	if fn != parity {
		t.Fatalf("root LUT is %v, want parity %v", fn, parity)
	}
}

func TestTrivialCutConstraint(t *testing.T) {
	n := netlist.New()
	a, b, c, d := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("d")
	v := n.Xor(a, b) // protected target node
	f := n.And(n.Xor(v, c), d)
	n.Output("f", f)

	// Unconstrained: the whole 4-input cone collapses into one LUT and v
	// disappears inside it.
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, visible := r.LUTIndex[v]; visible {
		t.Fatal("unconstrained mapping should absorb the XOR node")
	}

	// Constrained: v must be its own 2-input XOR LUT.
	r2, err := Map(n, Options{K: 6, TrivialCuts: map[netlist.NodeID]bool{v: true}})
	if err != nil {
		t.Fatal(err)
	}
	li, visible := r2.LUTIndex[v]
	if !visible {
		t.Fatal("constrained mapping lost the target node")
	}
	lut := r2.LUTs[li]
	if len(lut.Inputs) != 2 {
		t.Fatalf("trivially cut LUT has %d inputs, want 2", len(lut.Inputs))
	}
	if lut.Fn != boolfn.Xor(boolfn.Var(0), boolfn.Var(1)) {
		t.Fatalf("trivially cut LUT function %v is not XOR2", lut.Fn)
	}
	if err := r2.Verify(64, 3); err != nil {
		t.Fatal(err)
	}
	// The countermeasure costs depth: constrained ≥ unconstrained.
	if r2.Depth < r.Depth {
		t.Fatalf("constrained depth %d < unconstrained %d", r2.Depth, r.Depth)
	}
}

func TestCoveringLUTsNodeReuse(t *testing.T) {
	// A node read by two distant outputs should end up inside multiple
	// LUT cones (Section II-B: mappers reuse already-mapped nodes).
	n := netlist.New()
	a, b := n.Input("a"), n.Input("b")
	v := n.Xor(a, b)
	c, d := n.Input("c"), n.Input("d")
	n.Output("f", n.And(v, c))
	n.Output("g", n.Or(v, d))
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	covering := r.CoveringLUTs(v)
	if len(covering) < 2 {
		t.Fatalf("node v covered by %d LUTs, want ≥ 2", len(covering))
	}
}

func TestCoveredNodes(t *testing.T) {
	n := netlist.New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	x := n.Xor(a, b)
	f := n.And(x, c)
	n.Output("f", f)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	cov := r.Covered(r.LUTIndex[f])
	want := map[netlist.NodeID]bool{x: true, f: true}
	if len(cov) != 2 || !want[cov[0]] || !want[cov[1]] {
		t.Fatalf("covered = %v, want {x, f}", cov)
	}
}

func TestMapWithFFsAndBRAM(t *testing.T) {
	// Registers and a ROM in the loop: roots are the FF D inputs and the
	// ROM address pins.
	n := netlist.New()
	q := n.FFWord("q", 4, 0)
	content := make([]uint64, 16)
	for i := range content {
		content[i] = uint64((i*5 + 3) % 16)
	}
	romOut := n.NewBRAM("rom", q, 4, content)
	inc := n.AddWord(netlist.Word(romOut), n.ConstWord(1, 4))
	n.ConnectWord(q, inc)
	n.OutputWord("state", q)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(64, 4); err != nil {
		t.Fatal(err)
	}
	// Every FF data input that is a gate must be a mapped root.
	for _, ff := range n.FFs {
		if n.Nodes[ff.D].Op.IsGate() {
			if _, ok := r.LUTIndex[ff.D]; !ok {
				t.Fatalf("FF %s data input not mapped", ff.Name)
			}
		}
	}
}

func TestCutLimitAblation(t *testing.T) {
	// More priority cuts may never hurt depth.
	rng := rand.New(rand.NewSource(23))
	n := buildRandom(rng, 10, 300)
	r2, err := Map(n, Options{K: 6, CutLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Map(n, Options{K: 6, CutLimit: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r16.Depth > r2.Depth {
		t.Fatalf("depth with 16 cuts (%d) worse than with 2 (%d)", r16.Depth, r2.Depth)
	}
}

func TestPackDualXor(t *testing.T) {
	n := netlist.New()
	a, b, c, d := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("d")
	x1 := n.Xor(a, b)
	x2 := n.Xor(c, d)
	n.Output("x1", x1)
	n.Output("x2", x2)
	r, err := Map(n, Options{K: 6, TrivialCuts: map[netlist.NodeID]bool{x1: true, x2: true}})
	if err != nil {
		t.Fatal(err)
	}
	phys := Pack(r, PackPolicy{Prefer: map[netlist.NodeID]bool{x1: true, x2: true}})
	var dual *PhysLUT
	for i := range phys {
		if phys[i].Dual {
			dual = &phys[i]
		}
	}
	if dual == nil {
		t.Fatal("two XOR2 LUTs were not packed into a dual LUT")
	}
	if len(dual.Inputs) != 4 {
		t.Fatalf("dual LUT has %d inputs, want 4", len(dual.Inputs))
	}
	split := boolfn.SplitDual(dual.Init)
	if !boolfn.IsXor2Half(split.O5) || !boolfn.IsXor2Half(split.O6) {
		t.Fatalf("dual LUT halves are not both XOR2: %v", dual.Init)
	}
}

func TestPackKeepsFunctions(t *testing.T) {
	// Dual-packed functions must still evaluate correctly over the union
	// input order.
	n := netlist.New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	f1 := n.Xor(a, b)
	f2 := n.And(b, c)
	n.Output("f1", f1)
	n.Output("f2", f2)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	phys := Pack(r, PackPolicy{Prefer: map[netlist.NodeID]bool{f1: true, f2: true}})
	if len(phys) != 1 || !phys[0].Dual {
		t.Fatalf("f1 and f2 packed into %d physical LUTs (want one dual LUT): %+v", len(phys), phys)
	}
	for _, p := range phys {
		// Exhaustively compare each half against the source logic.
		for m := uint(0); m < 1<<uint(len(p.Inputs)); m++ {
			val := map[netlist.NodeID]bool{}
			for i, in := range p.Inputs {
				val[in] = m>>uint(i)&1 == 1
			}
			wantO5 := eval2(n, p.O5Root, val)
			wantO6 := eval2(n, p.O6Root, val)
			lo := boolfn.SplitDual(p.Init).O5
			hi := boolfn.SplitDual(p.Init).O6
			if boolfn.TT(lo).Eval(m) != wantO5 {
				t.Fatalf("O5 half wrong at %05b", m)
			}
			if boolfn.TT(hi).Eval(m) != wantO6 {
				t.Fatalf("O6 half wrong at %05b", m)
			}
		}
	}
}

// eval2 evaluates a small cone directly for the pack test.
func eval2(n *netlist.Netlist, id netlist.NodeID, val map[netlist.NodeID]bool) bool {
	if v, ok := val[id]; ok {
		return v
	}
	nd := n.Nodes[id]
	switch nd.Op {
	case netlist.OpAnd:
		return eval2(n, nd.Fanin[0], val) && eval2(n, nd.Fanin[1], val)
	case netlist.OpOr:
		return eval2(n, nd.Fanin[0], val) || eval2(n, nd.Fanin[1], val)
	case netlist.OpXor:
		return eval2(n, nd.Fanin[0], val) != eval2(n, nd.Fanin[1], val)
	case netlist.OpNot:
		return !eval2(n, nd.Fanin[0], val)
	}
	panic("eval2: unsupported op")
}

func TestTimingDeeperCircuitSlower(t *testing.T) {
	shallow := netlist.New()
	a, b := shallow.Input("a"), shallow.Input("b")
	q := shallow.NewFF("q", false)
	shallow.ConnectFF(q, shallow.Xor(a, b))
	deep := netlist.New()
	da, db := deep.Input("a"), deep.Input("b")
	dq := deep.NewFF("q", false)
	acc := deep.Xor(da, db)
	for i := 0; i < 20; i++ {
		acc = deep.Xor(acc, deep.Input("x"))
	}
	deep.ConnectFF(dq, acc)
	rs, err := Map(shallow, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Map(deep, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultDelays()
	ts, td := rs.Timing(m), rd.Timing(m)
	if td.Delay <= ts.Delay {
		t.Fatalf("deep circuit (%f) not slower than shallow (%f)", td.Delay, ts.Delay)
	}
	if ts.Endpoint == "" || len(ts.Through) == 0 {
		t.Fatal("timing report missing endpoint or path")
	}
}

func TestTimingBRAMPath(t *testing.T) {
	n := netlist.New()
	q := n.FFWord("q", 4, 0)
	out := n.NewBRAM("rom", q, 4, make([]uint64, 16))
	n.ConnectWord(q, netlist.Word(out))
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Timing(DefaultDelays())
	if rep.Delay < DefaultDelays().BRAM {
		t.Fatalf("BRAM path delay %f below BRAM access time", rep.Delay)
	}
}

func TestStatsHistogram(t *testing.T) {
	n := netlist.New()
	a, b := n.Input("a"), n.Input("b")
	n.Output("f", n.Xor(a, b))
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.LUTs != 1 || s.InputHist[2] != 1 {
		t.Fatalf("stats %v, want one 2-input LUT", s)
	}
}

func BenchmarkMapRandom2k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := buildRandom(rng, 16, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(n, Options{K: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapperCutLimit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := buildRandom(rng, 16, 1000)
	for _, limit := range []int{2, 8, 24} {
		b.Run(map[int]string{2: "limit2", 8: "limit8", 24: "limit24"}[limit], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(n, Options{K: 6, CutLimit: limit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTopPathsOrderedAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := buildRandom(rng, 10, 200)
	q := n.FFWord("q", 4, 0)
	n.ConnectWord(q, netlist.Word{2, 3, 4, 5})
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	model := DefaultDelays()
	top := r.TopPaths(model, 10)
	if len(top) == 0 {
		t.Fatal("no paths reported")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Delay > top[i-1].Delay {
			t.Fatal("TopPaths not sorted by delay")
		}
	}
	if r.Timing(model).Delay != top[0].Delay {
		t.Fatal("Timing disagrees with TopPaths[0]")
	}
}

func TestPlanCountermeasureSynthetic(t *testing.T) {
	// A design with 4 target XORs and plenty of same-function decoys.
	n := netlist.New()
	var targets []netlist.NodeID
	var sink netlist.NodeID = n.Const(false)
	for i := 0; i < 4; i++ {
		x := n.Xor(n.Input("t"), n.Input("t"))
		targets = append(targets, x)
		sink = n.Or(sink, x)
	}
	for i := 0; i < 40; i++ {
		sink = n.Or(sink, n.Xor(n.Input("d"), n.Input("d")))
	}
	n.Output("o", sink)
	plan, err := PlanCountermeasure(n, targets, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SecurityBits < 16 {
		t.Fatalf("plan reaches only 2^%.1f", plan.SecurityBits)
	}
	for _, v := range targets {
		if !plan.TrivialCuts[v] {
			t.Fatal("plan omitted a target")
		}
	}
	if len(plan.Decoys) == 0 {
		t.Fatal("plan selected no decoys")
	}
	// The plan must be mappable and preserve function.
	r, err := Map(n, Options{K: 6, TrivialCuts: plan.TrivialCuts})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(64, 5); err != nil {
		t.Fatal(err)
	}
	for v := range plan.TrivialCuts {
		if _, ok := r.LUTIndex[v]; !ok {
			t.Fatalf("constrained node %d not a root", v)
		}
	}
}

func TestPlanCountermeasureInsufficientDecoys(t *testing.T) {
	n := netlist.New()
	x := n.Xor(n.Input("a"), n.Input("b"))
	n.Output("o", x)
	if _, err := PlanCountermeasure(n, []netlist.NodeID{x}, 128); err == nil {
		t.Fatal("plan succeeded without enough same-function nodes")
	}
}

func TestPlanCountermeasureRejectsMixedTargets(t *testing.T) {
	n := netlist.New()
	x := n.Xor(n.Input("a"), n.Input("b"))
	y := n.And(n.Input("c"), n.Input("d"))
	n.Output("o", n.Or(x, y))
	if _, err := PlanCountermeasure(n, []netlist.NodeID{x, y}, 10); err == nil {
		t.Fatal("plan accepted targets with different functions")
	}
}

// TestMapSequentialFeedback maps an FF feedback mux over a parity of the
// same registers: the parity is both a primary output and a leaf of every
// register's next-state LUT.
func TestMapSequentialFeedback(t *testing.T) {
	n := netlist.New()
	q := n.FFWord("q", 6, 1)
	acc := q[0]
	for i := 1; i < 6; i++ {
		acc = n.Xor(acc, q[i])
	}
	for i := 0; i < 6; i++ {
		n.ConnectFF(q[i], n.Mux(n.Input("en"), acc, q[i]))
	}
	n.Output("p", acc)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(64, 3); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyFormalOnRandomDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		n := buildRandom(rng, 10, 250)
		r, err := Map(n, Options{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyFormal(0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestVerifyFormalCatchesCorruption(t *testing.T) {
	n := netlist.New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	n.Output("f", n.Xor(n.And(a, b), c))
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFormal(0); err != nil {
		t.Fatal(err)
	}
	// Corrupt one LUT function: the proof must fail.
	r.LUTs[0].Fn ^= 1 << 5
	if err := r.VerifyFormal(0); err == nil {
		t.Fatal("formal verification accepted a corrupted LUT")
	}
}

func TestWriteBLIF(t *testing.T) {
	n := netlist.New()
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	q := n.NewFF("q", true)
	x := n.Xor(n.And(a, b), c)
	n.ConnectFF(q, x)
	n.Output("f", n.Or(x, q))
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, r, "dut"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{".model dut", ".inputs", ".outputs po_f",
		".latch", ".names", ".end"} {
		if !strings.Contains(out, want) {
			t.Fatalf("BLIF missing %q:\n%s", want, out)
		}
	}
	// Cube lines must match the LUT function: count on-set rows.
	lut := r.LUTs[r.LUTIndex[x]]
	onset := 0
	for m := uint(0); m < 1<<uint(len(lut.Inputs)); m++ {
		if lut.Fn.Eval(m) {
			onset++
		}
	}
	if onset == 0 {
		t.Fatal("degenerate LUT in test")
	}
	if got := strings.Count(out, " 1\n"); got < onset {
		t.Fatalf("BLIF has %d cube rows, want ≥ %d", got, onset)
	}
}

func TestWriteBLIFFullDesignDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n := buildRandom(rng, 8, 150)
	r, err := Map(n, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteBLIF(&a, r, "m"); err != nil {
		t.Fatal(err)
	}
	if err := WriteBLIF(&b, r, "m"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("BLIF output not deterministic")
	}
}

// MappingStats summarizes a mapping's size for TestStatsHistogram.
type MappingStats struct {
	LUTs      int
	Depth     int
	InputHist [7]int // InputHist[i] = number of LUTs with i used inputs
}

// Stats computes size metrics of the mapping.
func (r *Result) Stats() MappingStats {
	s := MappingStats{LUTs: len(r.LUTs), Depth: r.Depth}
	for i := range r.LUTs {
		n := len(r.LUTs[i].Inputs)
		if n > 6 {
			n = 6
		}
		s.InputHist[n]++
	}
	return s
}
