package hdl

import (
	"fmt"

	"snowbma/internal/netlist"
	"snowbma/internal/snow3g"
)

// Device abstracts anything that behaves like the configured FPGA: the
// netlist-level simulator used in tests and the bitstream-configured
// device simulator used by the attack. Ports are addressed by their
// bit-blasted names ("iv0[5]", "z[31]", "load").
type Device interface {
	SetInput(name string, v bool)
	Clock()
	Read(name string) bool
}

// setWord drives the 32 bits of an input word port.
func setWord(dev Device, port string, v uint32) {
	for i := 0; i < 32; i++ {
		dev.SetInput(fmt.Sprintf("%s[%d]", port, i), v>>uint(i)&1 == 1)
	}
}

// readWord samples the 32 bits of an output word port.
func readWord(dev Device, port string) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		if dev.Read(fmt.Sprintf("%s[%d]", port, i)) {
			v |= 1 << uint(i)
		}
	}
	return v
}

func setControls(dev Device, load, init, run, gen bool) {
	dev.SetInput(PortLoad, load)
	dev.SetInput(PortInit, init)
	dev.SetInput(PortRun, run)
	dev.SetInput(PortGen, gen)
}

// GenerateKeystream drives the SNOW 3G control protocol on dev: one load
// cycle (γ(K, IV) with the bitstream-resident key), 32 initialization
// cycles, one discarded keystream-mode cycle, then n keystream words.
// This is the only interface the attack has to the victim device.
func GenerateKeystream(dev Device, iv snow3g.IV, n int) []uint32 {
	for i := 0; i < 4; i++ {
		setWord(dev, IVPort(i), iv[i])
	}
	// Load γ(K, IV), clear the FSM.
	setControls(dev, true, false, true, false)
	dev.Clock()
	// 32 initialization rounds.
	setControls(dev, false, true, true, false)
	for i := 0; i < 32; i++ {
		dev.Clock()
	}
	// Keystream mode: the first produced word is discarded per the
	// specification.
	setControls(dev, false, false, true, true)
	dev.Clock()
	z := make([]uint32, 0, n)
	for t := 0; t < n; t++ {
		dev.Clock()
		z = append(z, readWord(dev, PortZ))
	}
	return z
}

// BatchDevice abstracts a bitsliced multi-lane device: every pin
// carries a lane mask, bit L being the value in lane L. The device.Batch
// evaluator implements it at 1..device.MaxLanes lanes.
type BatchDevice interface {
	SetInputLanes(name string, mask uint64)
	ClockBatch()
	ReadLanes(name string) uint64
	Lanes() int
}

// setWordLanes drives an input word port with the same value on every
// lane (the control protocol and IV are common to all candidates).
func setWordLanes(dev BatchDevice, port string, v uint32) {
	for i := 0; i < 32; i++ {
		var mask uint64
		if v>>uint(i)&1 == 1 {
			mask = ^uint64(0)
		}
		dev.SetInputLanes(fmt.Sprintf("%s[%d]", port, i), mask)
	}
}

func setControlsLanes(dev BatchDevice, load, init, run, gen bool) {
	all := func(v bool) uint64 {
		if v {
			return ^uint64(0)
		}
		return 0
	}
	dev.SetInputLanes(PortLoad, all(load))
	dev.SetInputLanes(PortInit, all(init))
	dev.SetInputLanes(PortRun, all(run))
	dev.SetInputLanes(PortGen, all(gen))
}

// GenerateKeystreamBatch drives the same SNOW 3G control protocol as
// GenerateKeystream on a bitsliced batch device and returns one
// keystream slice per lane: out[L][t] is keystream word t of lane L.
// Every lane sees identical inputs; lanes differ only through their
// configuration patches, so lane L's output equals what GenerateKeystream
// would produce on a scalar device loaded with lane L's image.
func GenerateKeystreamBatch(dev BatchDevice, iv snow3g.IV, n int) [][]uint32 {
	for i := 0; i < 4; i++ {
		setWordLanes(dev, IVPort(i), iv[i])
	}
	setControlsLanes(dev, true, false, true, false)
	dev.ClockBatch()
	setControlsLanes(dev, false, true, true, false)
	for i := 0; i < 32; i++ {
		dev.ClockBatch()
	}
	setControlsLanes(dev, false, false, true, true)
	dev.ClockBatch()
	lanes := dev.Lanes()
	out := make([][]uint32, lanes)
	for L := range out {
		out[L] = make([]uint32, n)
	}
	for t := 0; t < n; t++ {
		dev.ClockBatch()
		for i := 0; i < 32; i++ {
			mask := dev.ReadLanes(fmt.Sprintf("%s[%d]", PortZ, i))
			for L := 0; L < lanes; L++ {
				if mask>>uint(L)&1 == 1 {
					out[L][t] |= 1 << uint(i)
				}
			}
		}
	}
	return out
}

// SimDevice adapts a netlist simulator to the Device interface for
// netlist-level (pre-bitstream) validation.
type SimDevice struct {
	sim   *netlist.Sim
	pins  map[string]netlist.NodeID
	ports map[string]netlist.NodeID
	dirty bool
}

// NewSimDevice wraps a simulator of the given design's netlist.
func NewSimDevice(n *netlist.Netlist) (*SimDevice, error) {
	sim, err := netlist.NewSim(n)
	if err != nil {
		return nil, err
	}
	d := &SimDevice{sim: sim, pins: map[string]netlist.NodeID{}, ports: map[string]netlist.NodeID{}}
	for _, pi := range n.PIs {
		d.pins[n.Nodes[pi].Name] = pi
	}
	for _, name := range n.OutputNames() {
		d.ports[name] = n.POs[name]
	}
	return d, nil
}

// SetInput drives a primary input by name.
func (d *SimDevice) SetInput(name string, v bool) {
	pin, ok := d.pins[name]
	if !ok {
		panic(fmt.Sprintf("hdl: unknown input pin %q", name))
	}
	d.sim.SetInput(pin, v)
	d.dirty = true
}

// Clock advances the design one cycle.
func (d *SimDevice) Clock() {
	d.sim.Step()
	d.dirty = true
}

// Read samples a primary output after the last clock edge.
func (d *SimDevice) Read(name string) bool {
	po, ok := d.ports[name]
	if !ok {
		panic(fmt.Sprintf("hdl: unknown output port %q", name))
	}
	if d.dirty {
		d.sim.Settle()
		d.dirty = false
	}
	return d.sim.Value(po)
}

// Reset restores the registers to the power-on state.
func (d *SimDevice) Reset() {
	d.sim.Reset()
	d.dirty = true
}
