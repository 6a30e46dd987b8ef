// Package netlist models gate-level Boolean networks N = (V, E) in the
// sense of Section II of the paper: nodes are primary inputs, constants,
// logic gates, flip-flop outputs and block-RAM ports; edges are the fanin
// relations. Networks are built through a constructor API that maintains
// the invariant fanin(v) < v in creation order, so the node slice is
// always a valid topological order and combinational evaluation is one
// forward pass.
//
// The package also provides sequential simulation (flip-flops and
// synchronous reset), word-level construction helpers used by the SNOW 3G
// RTL generator, structural hashing, and exports for diagnostics.
package netlist

import (
	"fmt"
)

// NodeID identifies a node within its network. The zero and one constants
// are pre-created so that valid IDs of user logic start at 2.
type NodeID int32

// Invalid is the out-of-band node ID.
const Invalid NodeID = -1

// Op enumerates node kinds.
type Op uint8

const (
	// OpConst0 and OpConst1 are the constant functions.
	OpConst0 Op = iota
	OpConst1
	// OpPI is a primary input.
	OpPI
	// OpFFQ is the output of a D flip-flop (Aux = flip-flop index).
	OpFFQ
	// OpBRAMOut is one data-output bit of a block RAM (Aux packs the RAM
	// index and bit position); fanins are the address bits, LSB first.
	OpBRAMOut
	// OpAdderOut is one sum bit of a carry-chain adder primitive (Aux
	// packs the adder index and bit position); fanins are the operand
	// bits the sum bit depends on.
	OpAdderOut
	// OpAnd, OpOr, OpXor are two-input gates.
	OpAnd
	OpOr
	OpXor
	// OpNot is the inverter.
	OpNot
	// OpMux is the 2-to-1 multiplexer: fanin[0] selects fanin[2] (sel=0)
	// or fanin[1] (sel=1).
	OpMux
	// OpBuf is a buffer, used to give stable names to logical nets.
	OpBuf
)

var opNames = map[Op]string{
	OpConst0: "const0", OpConst1: "const1", OpPI: "pi", OpFFQ: "ffq",
	OpBRAMOut: "bram", OpAdderOut: "carry", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNot: "not", OpMux: "mux", OpBuf: "buf",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsGate reports whether the op is combinational logic with fanins.
func (o Op) IsGate() bool {
	switch o {
	case OpAnd, OpOr, OpXor, OpNot, OpMux, OpBuf:
		return true
	}
	return false
}

// Node is one vertex of the network.
type Node struct {
	Op    Op
	Fanin []NodeID
	// Aux carries op-specific payload: flip-flop index for OpFFQ, packed
	// (ramIndex<<8 | bit) for OpBRAMOut.
	Aux  int32
	Name string
}

// FF is a D flip-flop. Q is the OpFFQ node exposing its state; D is wired
// later with ConnectFF because registers typically close combinational
// loops.
type FF struct {
	Name string
	D    NodeID
	Q    NodeID
	Init bool
}

// BRAM is a block RAM used as a combinational (asynchronous-read) ROM:
// in the victim design the S-boxes and the MULα/DIVα maps are table
// lookups whose content travels in the bitstream's BRAM frames. The real
// hardware registers the BRAM output; modelling the read as combinational
// is behaviourally equivalent for keystream generation and keeps the
// simulator a single forward pass per cycle.
type BRAM struct {
	Name     string
	AddrBits int
	DataBits int
	// Content[a] holds the data word at address a (low DataBits bits).
	Content []uint64
	Addr    []NodeID
	Out     []NodeID
}

// Netlist is a mutable gate-level network.
type Netlist struct {
	Nodes  []Node
	FFs    []FF
	BRAMs  []BRAM
	Adders []Adder
	// PIs in declaration order; POs are named output nets.
	PIs     []NodeID
	poNames []string
	POs     map[string]NodeID
	// strash dedupes structurally identical gates when enabled.
	strash map[strashKey]NodeID
	// fanoutCount is maintained incrementally for mapper heuristics.
	fanoutCount []int32
}

type strashKey struct {
	op Op
	f0 NodeID
	f1 NodeID
	f2 NodeID
}

// New returns an empty network with the two constants pre-created and
// structural hashing enabled.
func New() *Netlist {
	n := &Netlist{POs: make(map[string]NodeID), strash: make(map[strashKey]NodeID)}
	n.addNode(Node{Op: OpConst0, Name: "const0"})
	n.addNode(Node{Op: OpConst1, Name: "const1"})
	return n
}

// Const returns the node for the constant bit v.
func (n *Netlist) Const(v bool) NodeID {
	if v {
		return 1
	}
	return 0
}

func (n *Netlist) addNode(nd Node) NodeID {
	id := NodeID(len(n.Nodes))
	for _, f := range nd.Fanin {
		if f < 0 || f >= id {
			panic(fmt.Sprintf("netlist: fanin %d of new node %d violates topological construction", f, id))
		}
		n.fanoutCount[f]++
	}
	n.Nodes = append(n.Nodes, nd)
	n.fanoutCount = append(n.fanoutCount, 0)
	return id
}

// Input declares a primary input.
func (n *Netlist) Input(name string) NodeID {
	id := n.addNode(Node{Op: OpPI, Name: name})
	n.PIs = append(n.PIs, id)
	return id
}

// NewFF declares a flip-flop with the given reset value and returns its Q
// node. Wire the data input later with ConnectFF.
func (n *Netlist) NewFF(name string, init bool) NodeID {
	ffIdx := int32(len(n.FFs))
	q := n.addNode(Node{Op: OpFFQ, Aux: ffIdx, Name: name})
	n.FFs = append(n.FFs, FF{Name: name, D: Invalid, Q: q, Init: init})
	return q
}

// ConnectFF wires the data input of the flip-flop whose Q node is q.
func (n *Netlist) ConnectFF(q, d NodeID) {
	nd := n.Nodes[q]
	if nd.Op != OpFFQ {
		panic("netlist: ConnectFF on a non-flip-flop node")
	}
	n.FFs[nd.Aux].D = d
}

// NewBRAM declares a combinational ROM with the given address nets and
// content and returns the data-output nets, LSB first.
func (n *Netlist) NewBRAM(name string, addr []NodeID, dataBits int, content []uint64) []NodeID {
	if len(content) != 1<<len(addr) {
		panic(fmt.Sprintf("netlist: BRAM %s content size %d != 2^%d", name, len(content), len(addr)))
	}
	ramIdx := len(n.BRAMs)
	out := make([]NodeID, dataBits)
	for b := 0; b < dataBits; b++ {
		out[b] = n.addNode(Node{
			Op:    OpBRAMOut,
			Fanin: append([]NodeID(nil), addr...),
			Aux:   int32(ramIdx)<<8 | int32(b),
			Name:  fmt.Sprintf("%s[%d]", name, b),
		})
	}
	n.BRAMs = append(n.BRAMs, BRAM{
		Name: name, AddrBits: len(addr), DataBits: dataBits,
		Content: append([]uint64(nil), content...),
		Addr:    append([]NodeID(nil), addr...),
		Out:     out,
	})
	return out
}

// gate creates (or reuses, through structural hashing) a combinational
// node after constant folding and trivial simplification.
func (n *Netlist) gate(op Op, fanin ...NodeID) NodeID {
	if folded, ok := n.fold(op, fanin); ok {
		return folded
	}
	key := strashKey{op: op, f0: Invalid, f1: Invalid, f2: Invalid}
	// Commutative gates are canonicalized so a&b and b&a share a node.
	if (op == OpAnd || op == OpOr || op == OpXor) && fanin[0] > fanin[1] {
		fanin[0], fanin[1] = fanin[1], fanin[0]
	}
	for i, f := range fanin {
		switch i {
		case 0:
			key.f0 = f
		case 1:
			key.f1 = f
		case 2:
			key.f2 = f
		}
	}
	if id, ok := n.strash[key]; ok {
		return id
	}
	id := n.addNode(Node{Op: op, Fanin: append([]NodeID(nil), fanin...)})
	n.strash[key] = id
	return id
}

// fold applies constant folding and idempotence rules.
func (n *Netlist) fold(op Op, f []NodeID) (NodeID, bool) {
	isC := func(id NodeID) (bool, bool) { // value, isConst
		switch n.Nodes[id].Op {
		case OpConst0:
			return false, true
		case OpConst1:
			return true, true
		}
		return false, false
	}
	switch op {
	case OpNot:
		if v, c := isC(f[0]); c {
			return n.Const(!v), true
		}
		// Double negation cancels.
		if n.Nodes[f[0]].Op == OpNot {
			return n.Nodes[f[0]].Fanin[0], true
		}
	case OpBuf:
		// Buffers are kept only when explicitly named by the caller.
	case OpAnd:
		a, b := f[0], f[1]
		if v, c := isC(a); c {
			if !v {
				return n.Const(false), true
			}
			return b, true
		}
		if v, c := isC(b); c {
			if !v {
				return n.Const(false), true
			}
			return a, true
		}
		if a == b {
			return a, true
		}
	case OpOr:
		a, b := f[0], f[1]
		if v, c := isC(a); c {
			if v {
				return n.Const(true), true
			}
			return b, true
		}
		if v, c := isC(b); c {
			if v {
				return n.Const(true), true
			}
			return a, true
		}
		if a == b {
			return a, true
		}
	case OpXor:
		a, b := f[0], f[1]
		if v, c := isC(a); c {
			if v {
				return n.gate(OpNot, b), true
			}
			return b, true
		}
		if v, c := isC(b); c {
			if v {
				return n.gate(OpNot, a), true
			}
			return a, true
		}
		if a == b {
			return n.Const(false), true
		}
	case OpMux:
		s, t, e := f[0], f[1], f[2]
		if v, c := isC(s); c {
			if v {
				return t, true
			}
			return e, true
		}
		if t == e {
			return t, true
		}
		if vt, ct := isC(t); ct {
			if ve, ce := isC(e); ce {
				if vt && !ve {
					return s, true
				}
				if !vt && ve {
					return n.gate(OpNot, s), true
				}
			}
		}
	}
	return Invalid, false
}

// And, Or, Xor, Not, Mux build gates with folding and sharing.
func (n *Netlist) And(a, b NodeID) NodeID    { return n.gate(OpAnd, a, b) }
func (n *Netlist) Or(a, b NodeID) NodeID     { return n.gate(OpOr, a, b) }
func (n *Netlist) Xor(a, b NodeID) NodeID    { return n.gate(OpXor, a, b) }
func (n *Netlist) Not(a NodeID) NodeID       { return n.gate(OpNot, a) }
func (n *Netlist) Mux(s, t, e NodeID) NodeID { return n.gate(OpMux, s, t, e) }

// SetName attaches a diagnostic name to a node.
func (n *Netlist) SetName(id NodeID, name string) { n.Nodes[id].Name = name }

// Output marks a node as the primary output with the given name.
func (n *Netlist) Output(name string, id NodeID) {
	if _, dup := n.POs[name]; !dup {
		n.poNames = append(n.poNames, name)
	}
	n.POs[name] = id
}

// OutputNames returns output names in declaration order.
func (n *Netlist) OutputNames() []string {
	return append([]string(nil), n.poNames...)
}

// Fanout returns how many nodes (not POs or FF data inputs) read id.
func (n *Netlist) Fanout(id NodeID) int { return int(n.fanoutCount[id]) }

// NumNodes returns the node count including constants.
func (n *Netlist) NumNodes() int { return len(n.Nodes) }

// Validate checks structural invariants: wired flip-flops, topological
// fanins, known ops. It returns the first violation found.
func (n *Netlist) Validate() error {
	for i, ff := range n.FFs {
		if ff.D == Invalid {
			return fmt.Errorf("netlist: flip-flop %d (%s) has unconnected D", i, ff.Name)
		}
		if ff.D < 0 || int(ff.D) >= len(n.Nodes) {
			return fmt.Errorf("netlist: flip-flop %d D out of range", i)
		}
	}
	for id, nd := range n.Nodes {
		for _, f := range nd.Fanin {
			if f < 0 || f >= NodeID(id) {
				return fmt.Errorf("netlist: node %d fanin %d not topological", id, f)
			}
		}
		switch nd.Op {
		case OpAnd, OpOr, OpXor:
			if len(nd.Fanin) != 2 {
				return fmt.Errorf("netlist: node %d %s arity %d", id, nd.Op, len(nd.Fanin))
			}
		case OpNot, OpBuf:
			if len(nd.Fanin) != 1 {
				return fmt.Errorf("netlist: node %d %s arity %d", id, nd.Op, len(nd.Fanin))
			}
		case OpMux:
			if len(nd.Fanin) != 3 {
				return fmt.Errorf("netlist: node %d mux arity %d", id, len(nd.Fanin))
			}
		}
	}
	for name, po := range n.POs {
		if po < 0 || int(po) >= len(n.Nodes) {
			return fmt.Errorf("netlist: output %s out of range", name)
		}
	}
	return nil
}
