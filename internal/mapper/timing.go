package mapper

import (
	"fmt"
	"sort"

	"snowbma/internal/netlist"
)

// DelayModel assigns component delays in nanoseconds. The absolute values
// are a stand-in for a vendor timing library; what the reproduction needs
// is the *relative* effect (Section VII-A): the unprotected design's
// critical path runs through the BRAM S-box between R1 and R2, and the
// countermeasure's extra LUT levels on the feedback path move the
// critical path to MULα → s15 and lengthen it.
type DelayModel struct {
	// LUT is the logic + local routing delay of one LUT level.
	LUT float64
	// Net is the general routing delay added per LUT input hop.
	Net float64
	// BRAM is the block-RAM access delay.
	BRAM float64
	// CarryBit is the incremental delay per carry-chain position.
	CarryBit float64
}

// DefaultDelays roughly mirrors Artix-7 speed-grade-1 component delays.
func DefaultDelays() DelayModel {
	return DelayModel{LUT: 0.45, Net: 0.55, BRAM: 2.2, CarryBit: 0.04}
}

// PathReport describes the slowest register-to-register (or input-to-
// register) path of a mapped design.
type PathReport struct {
	// Delay is the critical-path delay in the model's units.
	Delay float64
	// Levels is the number of LUT levels on the critical path.
	Levels int
	// Endpoint names the flip-flop or output terminating the path.
	Endpoint string
	// Through lists node names along the path, endpoint last.
	Through []string
}

// Timing computes arrival times for every visible net of the mapping and
// returns the critical path. Terminals (PIs and flip-flop outputs) start
// at 0; BRAM ports add the BRAM delay on top of their address arrival.
func (r *Result) Timing(model DelayModel) PathReport {
	paths := r.TopPaths(model, 1)
	if len(paths) == 0 {
		return PathReport{}
	}
	return paths[0]
}

// TopPaths returns the k slowest endpoint paths, slowest first — the
// analogue of a timing report's "ten slowest paths" list, which the
// paper consults to argue the unprotected feedback path has slack.
func (r *Result) TopPaths(model DelayModel, k int) []PathReport {
	n := r.Netlist
	arr := make([]float64, n.NumNodes())
	lev := make([]int, n.NumNodes())
	from := make([]netlist.NodeID, n.NumNodes())
	for i := range from {
		from[i] = netlist.Invalid
	}
	for id := range n.Nodes {
		nd := &n.Nodes[id]
		switch nd.Op {
		case netlist.OpBRAMOut:
			worst := 0.0
			for _, a := range nd.Fanin {
				if arr[a] > worst {
					worst = arr[a]
					from[id] = a
				}
			}
			arr[id] = worst + model.BRAM
			if from[id] != netlist.Invalid {
				lev[id] = lev[from[id]]
			}
		case netlist.OpAdderOut:
			worst := 0.0
			for _, a := range nd.Fanin {
				if arr[a] > worst {
					worst = arr[a]
					from[id] = a
				}
			}
			bit := float64(nd.Aux&0xff) + 1
			arr[id] = worst + model.CarryBit*bit
			if from[id] != netlist.Invalid {
				lev[id] = lev[from[id]]
			}
		default:
			if li, ok := r.LUTIndex[netlist.NodeID(id)]; ok {
				lut := &r.LUTs[li]
				worst := 0.0
				for _, in := range lut.Inputs {
					if arr[in] >= worst {
						worst = arr[in]
						from[id] = in
					}
				}
				arr[id] = worst + model.LUT + model.Net
				lev[id] = 1
				if from[id] != netlist.Invalid {
					lev[id] += lev[from[id]]
				}
			}
		}
	}
	// Endpoints: flip-flop data inputs and primary outputs.
	type endpoint struct {
		net  netlist.NodeID
		name string
	}
	var eps []endpoint
	for _, ff := range n.FFs {
		eps = append(eps, endpoint{ff.D, "FF " + ff.Name})
	}
	names := n.OutputNames()
	sort.Strings(names)
	for _, name := range names {
		eps = append(eps, endpoint{n.POs[name], "PO " + name})
	}
	sort.SliceStable(eps, func(i, j int) bool { return arr[eps[i].net] > arr[eps[j].net] })
	if k > len(eps) {
		k = len(eps)
	}
	out := make([]PathReport, 0, k)
	for _, ep := range eps[:k] {
		rep := PathReport{Delay: arr[ep.net], Levels: lev[ep.net], Endpoint: ep.name}
		for v := ep.net; v != netlist.Invalid; v = from[v] {
			name := n.Nodes[v].Name
			if name == "" {
				name = fmt.Sprintf("n%d(%s)", v, n.Nodes[v].Op)
			}
			rep.Through = append([]string{name}, rep.Through...)
		}
		out = append(out, rep)
	}
	return out
}
