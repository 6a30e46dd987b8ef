package mapper

import (
	"fmt"
	"sort"

	"snowbma/internal/boolfn"
	"snowbma/internal/netlist"
)

// Options configures a mapping run.
type Options struct {
	// K is the LUT input count (default 6, the Xilinx 7-series value).
	K int
	// CutLimit bounds the priority-cut set per node (default 8).
	CutLimit int
	// TrivialCuts lists nodes that must be covered by trivial cuts — the
	// countermeasure's KEEP/DONT_TOUCH analogue. Each listed node becomes
	// its own LUT and is never absorbed into another cone.
	TrivialCuts map[netlist.NodeID]bool
	// Boundaries lists nets preserved as hierarchy boundaries (the effect
	// of hierarchy-rebuilding synthesis): a boundary net maps normally —
	// any cut may cover it — but fanouts must treat it as a leaf, so it
	// is never absorbed into a consumer's LUT.
	Boundaries map[netlist.NodeID]bool
}

func (o *Options) fill() {
	if o.K == 0 {
		o.K = 6
	}
	if o.K < 2 || o.K > boolfn.MaxVars {
		panic(fmt.Sprintf("mapper: unsupported K=%d", o.K))
	}
	if o.CutLimit == 0 {
		o.CutLimit = 8
	}
	if o.TrivialCuts == nil {
		o.TrivialCuts = map[netlist.NodeID]bool{}
	}
	if o.Boundaries == nil {
		o.Boundaries = map[netlist.NodeID]bool{}
	}
}

// LUT is one mapped lookup table: the function Fn over Inputs (Inputs[i]
// is variable a_{i+1}) rooted at netlist node Root.
type LUT struct {
	Root   netlist.NodeID
	Inputs []netlist.NodeID
	Fn     boolfn.TT
}

// Result is a completed mapping.
type Result struct {
	Netlist  *netlist.Netlist
	K        int
	LUTs     []LUT
	LUTIndex map[netlist.NodeID]int
	// Depth is the maximum LUT level over all roots.
	Depth int
}

// Map covers all logic reachable from primary outputs, flip-flop data
// inputs and BRAM address pins with K-input LUTs.
func Map(n *netlist.Netlist, opt Options) (*Result, error) {
	opt.fill()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	roots := requiredRoots(n)

	// Pass 1: area flow with static fanout estimates.
	chosen, needed := selectCover(n, opt, roots, func(v netlist.NodeID) int { return n.Fanout(v) })

	// Pass 2: refine fanout estimates to the leaf-reference counts of the
	// first selection. This corrects area flow's habit of discounting a
	// node whose other fanouts absorb it inside their cones rather than
	// reading it as a mapped net.
	refs := make([]int, n.NumNodes())
	for v := range needed {
		for _, l := range chosen[v].Leaves {
			refs[l]++
		}
	}
	for _, r := range roots {
		refs[r]++
	}
	chosen, needed = selectCover(n, opt, roots, func(v netlist.NodeID) int { return refs[v] })

	// Extract LUTs in topological (ascending ID) order.
	var order []netlist.NodeID
	for v := range needed {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	res := &Result{Netlist: n, K: opt.K, LUTIndex: make(map[netlist.NodeID]int, len(order))}
	level := make([]int, n.NumNodes())
	for _, v := range order {
		c := chosen[v]
		fn := coneFunction(n, v, c.Leaves)
		res.LUTIndex[v] = len(res.LUTs)
		res.LUTs = append(res.LUTs, LUT{Root: v, Inputs: append([]netlist.NodeID(nil), c.Leaves...), Fn: fn})
		lv := 0
		for _, l := range c.Leaves {
			if level[l] > lv {
				lv = level[l]
			}
		}
		level[v] = lv + 1
		if level[v] > res.Depth {
			res.Depth = level[v]
		}
	}
	return res, nil
}

// selectCover enumerates cuts under the given fanout estimator and picks
// a cover by backward traversal from the required roots: the chosen cut
// of every needed node. Each node takes the head of its cut set:
// insertCut keeps every set sorted by cutLess (depth, then area flow,
// then the larger cut), and a forced (countermeasure) set holds its one
// fanin cut, so the head is the depth-optimal, least-flow cover.
func selectCover(n *netlist.Netlist, opt Options, roots []netlist.NodeID, fo fanoutEst) (chosen []*Cut, needed map[netlist.NodeID]bool) {
	cuts := enumerateCuts(n, opt, fo)
	chosen = make([]*Cut, n.NumNodes())
	needed = map[netlist.NodeID]bool{}
	var queue []netlist.NodeID
	push := func(v netlist.NodeID) {
		if n.Nodes[v].Op.IsGate() && !needed[v] {
			needed[v] = true
			queue = append(queue, v)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c := &cuts[v][0]
		chosen[v] = c
		for _, l := range c.Leaves {
			push(l)
		}
	}
	return chosen, needed
}

// requiredRoots collects the nets that must be visible after mapping.
func requiredRoots(n *netlist.Netlist) []netlist.NodeID {
	seen := map[netlist.NodeID]bool{}
	var out []netlist.NodeID
	add := func(v netlist.NodeID) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, name := range n.OutputNames() {
		add(n.POs[name])
	}
	for _, ff := range n.FFs {
		add(ff.D)
	}
	for i := range n.BRAMs {
		for _, a := range n.BRAMs[i].Addr {
			add(a)
		}
	}
	for i := range n.Adders {
		for _, a := range n.Adders[i].A {
			add(a)
		}
		for _, b := range n.Adders[i].B {
			add(b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coneFunction computes the truth table of node v over the given leaves
// (leaf i → variable a_{i+1}).
func coneFunction(n *netlist.Netlist, v netlist.NodeID, leaves []netlist.NodeID) boolfn.TT {
	memo := make(map[netlist.NodeID]boolfn.TT, 16)
	for i, l := range leaves {
		memo[l] = boolfn.Var(i)
	}
	var eval func(netlist.NodeID) boolfn.TT
	eval = func(id netlist.NodeID) boolfn.TT {
		if tt, ok := memo[id]; ok {
			return tt
		}
		nd := &n.Nodes[id]
		var tt boolfn.TT
		switch nd.Op {
		case netlist.OpConst0:
			tt = boolfn.Const0
		case netlist.OpConst1:
			tt = boolfn.Const1
		case netlist.OpAnd:
			tt = boolfn.And(eval(nd.Fanin[0]), eval(nd.Fanin[1]))
		case netlist.OpOr:
			tt = boolfn.Or(eval(nd.Fanin[0]), eval(nd.Fanin[1]))
		case netlist.OpXor:
			tt = boolfn.Xor(eval(nd.Fanin[0]), eval(nd.Fanin[1]))
		case netlist.OpNot:
			tt = boolfn.Not(eval(nd.Fanin[0]))
		case netlist.OpBuf:
			tt = eval(nd.Fanin[0])
		case netlist.OpMux:
			tt = boolfn.Mux(eval(nd.Fanin[0]), eval(nd.Fanin[1]), eval(nd.Fanin[2]))
		default:
			panic(fmt.Sprintf("mapper: cone of %d crosses non-gate node %d (%v); invalid cut", v, id, nd.Op))
		}
		memo[id] = tt
		return tt
	}
	return eval(v)
}

// Covered returns the gate nodes inside LUT i (between its leaves and
// root, inclusive of the root) — the "nodes covered by the LUT" of
// Section II-B and Fig 5.
func (r *Result) Covered(i int) []netlist.NodeID {
	lut := r.LUTs[i]
	leafSet := map[netlist.NodeID]bool{}
	for _, l := range lut.Inputs {
		leafSet[l] = true
	}
	var out []netlist.NodeID
	seen := map[netlist.NodeID]bool{}
	var walk func(netlist.NodeID)
	walk = func(id netlist.NodeID) {
		if seen[id] || leafSet[id] {
			return
		}
		seen[id] = true
		nd := &r.Netlist.Nodes[id]
		if !nd.Op.IsGate() {
			return
		}
		out = append(out, id)
		for _, f := range nd.Fanin {
			walk(f)
		}
	}
	walk(lut.Root)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoveringLUTs returns the indexes of every LUT whose cone contains node
// v (the paper's observation that reused nodes are covered by more than
// one LUT).
func (r *Result) CoveringLUTs(v netlist.NodeID) []int {
	var out []int
	for i := range r.LUTs {
		for _, u := range r.Covered(i) {
			if u == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Verify simulates the mapped network against the source netlist on
// random input vectors and register states, returning an error on the
// first divergence. It is the mapper's functional safety net.
func (r *Result) Verify(trials int, seed int64) error {
	return verifyEquivalence(r, trials, seed)
}
