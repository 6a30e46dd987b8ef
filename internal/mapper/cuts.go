// Package mapper implements k-LUT technology mapping for Boolean networks
// in the style sketched in Section II-B of the paper: k-feasible cuts are
// enumerated bottom-up (cut enumeration with priority-cut pruning), and a
// depth-optimal cover is selected with area flow breaking depth ties, in
// two passes whose second refines the fanout estimates of the first.
// Nodes already mapped are reused when searching for k-feasible cuts,
// which — as the paper notes — is exactly the mapper behaviour that makes
// target nodes appear inside several LUTs (LUT₁/LUT₂/LUT₃ all cover the
// FSM output XOR v).
//
// The mapper also implements the paper's countermeasure (Section VII-A):
// nodes listed in Options.TrivialCuts are forced to be covered by the
// trivial cut — each becomes the root of its own LUT with exactly its
// gate fanins as LUT inputs and can never be absorbed into a larger cone.
package mapper

import (
	"fmt"
	"sort"

	"snowbma/internal/netlist"
)

// Cut is a set of leaves (sorted ascending) of a k-feasible cut, together
// with the quality metrics used during selection.
type Cut struct {
	Leaves []netlist.NodeID
	sign   uint64  // Bloom-style signature for fast dominance checks
	depth  int     // mapping depth if this cut is selected
	flow   float64 // area flow estimate
}

func signature(leaves []netlist.NodeID) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) % 64)
	}
	return s
}

// mergeLeaves unions two sorted leaf sets, returning nil if the result
// exceeds k.
func mergeLeaves(a, b []netlist.NodeID, k int) []netlist.NodeID {
	out := make([]netlist.NodeID, 0, k+1)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next netlist.NodeID
		switch {
		case i == len(a):
			next = b[j]
			j++
		case j == len(b):
			next = a[i]
			i++
		case a[i] < b[j]:
			next = a[i]
			i++
		case a[i] > b[j]:
			next = b[j]
			j++
		default:
			next = a[i]
			i++
			j++
		}
		out = append(out, next)
		if len(out) > k {
			return nil
		}
	}
	return out
}

// dominates reports whether cut a's leaves are a subset of cut b's.
// Dominated cuts are pruned: any cover using b could use a at no loss.
func dominates(a, b *Cut) bool {
	if a.sign&^b.sign != 0 || len(a.Leaves) > len(b.Leaves) {
		return false
	}
	i := 0
	for _, l := range a.Leaves {
		for i < len(b.Leaves) && b.Leaves[i] < l {
			i++
		}
		if i == len(b.Leaves) || b.Leaves[i] != l {
			return false
		}
	}
	return true
}

// insertCut adds c to the pruned cut set, enforcing subset dominance and
// the priority-cut limit (cuts are kept sorted by (depth, flow, size)).
func insertCut(set []Cut, c Cut, limit int) []Cut {
	for i := range set {
		if dominates(&set[i], &c) {
			return set
		}
	}
	kept := set[:0]
	for i := range set {
		if !dominates(&c, &set[i]) {
			kept = append(kept, set[i])
		}
	}
	set = kept
	pos := len(set)
	for i := range set {
		if cutLess(&c, &set[i]) {
			pos = i
			break
		}
	}
	set = append(set, Cut{})
	copy(set[pos+1:], set[pos:])
	set[pos] = c
	if len(set) > limit {
		set = set[:limit]
	}
	return set
}

func cutLess(a, b *Cut) bool {
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if a.flow != b.flow {
		return a.flow < b.flow
	}
	// On an exact (depth, flow) tie prefer the larger cut: absorbing more
	// logic per LUT matches the packing behaviour of commercial mappers.
	return len(a.Leaves) > len(b.Leaves)
}

// fanoutEst supplies the fanout estimate used for area-flow sharing. The
// first mapping pass uses static netlist fanout; the refinement pass uses
// the leaf-reference counts of the previous selection, which corrects the
// classic area-flow error of discounting a node whose other fanouts
// absorb it instead of reading it as a net.
type fanoutEst func(netlist.NodeID) int

// enumerateCuts computes the pruned cut set of every gate: the covers
// selectable when mapping it, sorted by cutLess. Each node also exposes
// a cut set to its fanouts (fanoutCuts). Terminal nodes (PIs, constants,
// flip-flop outputs, BRAM ports) expose only the trivial cut.
// Trivially-cut (countermeasure) nodes also expose only the trivial cut
// — fanouts must treat them as leaves — and their sole cover is the
// forced fanin cut. depthOpt and flowOpt hold each node's best depth
// and area flow, which its fanouts' cut costs read.
func enumerateCuts(n *netlist.Netlist, opt Options, fo fanoutEst) [][]Cut {
	depthOpt := make([]int, n.NumNodes())
	flowOpt := make([]float64, n.NumNodes())
	selfCuts := make([][]Cut, n.NumNodes())
	fanoutCuts := make([][]Cut, n.NumNodes())
	for id := 0; id < n.NumNodes(); id++ {
		nd := &n.Nodes[id]
		v := netlist.NodeID(id)
		trivial := Cut{Leaves: []netlist.NodeID{v}, sign: signature([]netlist.NodeID{v})}
		if !nd.Op.IsGate() {
			depthOpt[id] = 0
			flowOpt[id] = 0
			fanoutCuts[id] = []Cut{trivial}
			continue
		}
		var set []Cut
		if !opt.TrivialCuts[v] {
			set = expandGateCuts(n, v, fanoutCuts, opt, depthOpt, flowOpt, fo)
		}
		if len(set) == 0 {
			// Countermeasure node, or merge produced nothing (gate arity
			// ≤ 3 ≤ k makes the fanin cut always feasible).
			set = []Cut{forcedCut(n, v, depthOpt, flowOpt, fo)}
		}
		depthOpt[id] = set[0].depth
		flowOpt[id] = set[0].flow
		selfCuts[id] = set
		trivial.depth = set[0].depth
		trivial.flow = set[0].flow
		if opt.TrivialCuts[v] || opt.Boundaries[v] {
			fanoutCuts[id] = []Cut{trivial}
		} else {
			fanoutCuts[id] = append(append([]Cut(nil), set...), trivial)
		}
	}
	return selfCuts
}

// forcedCut builds the cut consisting of v's fanins (minus constants).
func forcedCut(n *netlist.Netlist, v netlist.NodeID, depthOpt []int, flowOpt []float64, fo fanoutEst) Cut {
	leaves := make([]netlist.NodeID, 0, 3)
	for _, f := range n.Nodes[v].Fanin {
		if op := n.Nodes[f].Op; op == netlist.OpConst0 || op == netlist.OpConst1 {
			continue
		}
		leaves = append(leaves, f)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	leaves = dedupe(leaves)
	c := Cut{Leaves: leaves, sign: signature(leaves)}
	c.depth, c.flow = cutCost(n, &c, depthOpt, flowOpt, fo)
	return c
}

func dedupe(s []netlist.NodeID) []netlist.NodeID {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// cutCost computes the depth and area flow of selecting this cut.
func cutCost(n *netlist.Netlist, c *Cut, depthOpt []int, flowOpt []float64, fo fanoutEst) (int, float64) {
	d := 0
	flow := 1.0
	for _, l := range c.Leaves {
		if depthOpt[l] > d {
			d = depthOpt[l]
		}
		f := fo(l)
		if f < 1 {
			f = 1
		}
		flow += flowOpt[l] / float64(f)
	}
	return d + 1, flow
}

// expandGateCuts merges fanin cut sets to produce the cut set of v.
func expandGateCuts(n *netlist.Netlist, v netlist.NodeID, cuts [][]Cut, opt Options, depthOpt []int, flowOpt []float64, fo fanoutEst) []Cut {
	nd := &n.Nodes[v]
	// Constant fanins do not contribute leaves; substitute an empty set.
	faninCuts := make([][]Cut, len(nd.Fanin))
	empty := []Cut{{Leaves: nil}}
	for i, f := range nd.Fanin {
		if op := n.Nodes[f].Op; op == netlist.OpConst0 || op == netlist.OpConst1 {
			faninCuts[i] = empty
		} else {
			faninCuts[i] = cuts[f]
		}
	}
	var set []Cut
	add := func(leaves []netlist.NodeID) {
		c := Cut{Leaves: leaves, sign: signature(leaves)}
		c.depth, c.flow = cutCost(n, &c, depthOpt, flowOpt, fo)
		set = insertCut(set, c, opt.CutLimit)
	}
	switch len(faninCuts) {
	case 1:
		for _, c0 := range faninCuts[0] {
			if l := mergeLeaves(c0.Leaves, nil, opt.K); l != nil {
				add(l)
			}
		}
	case 2:
		for _, c0 := range faninCuts[0] {
			for _, c1 := range faninCuts[1] {
				if l := mergeLeaves(c0.Leaves, c1.Leaves, opt.K); l != nil {
					add(l)
				}
			}
		}
	case 3:
		for _, c0 := range faninCuts[0] {
			for _, c1 := range faninCuts[1] {
				l01 := mergeLeaves(c0.Leaves, c1.Leaves, opt.K)
				if l01 == nil {
					continue
				}
				for _, c2 := range faninCuts[2] {
					if l := mergeLeaves(l01, c2.Leaves, opt.K); l != nil {
						add(l)
					}
				}
			}
		}
	default:
		panic(fmt.Sprintf("mapper: gate %d with %d fanins", v, len(faninCuts)))
	}
	return set
}
