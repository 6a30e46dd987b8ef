// Package device simulates the victim FPGA. An FPGA instance configures
// itself exclusively from raw bitstream bytes — parsing packets, checking
// the configuration CRC (or the HMAC of an encrypted image), extracting
// LUT truth tables from the CLB frames and block-RAM content from the
// BRAM frames — and then executes the configured circuit cycle-
// accurately. Because the LUT logic is re-read from the bytes on every
// Load, bitstream modifications change device behaviour exactly as on
// real hardware, which is the property the attack exploits.
//
// Decoding is re-done on every Load; compiling is not. A device keeps
// the Compiled form of the configuration it was programmed with, and a
// Load whose frame bytes equal it byte for byte (compared in full, never
// by a hash) reuses it outright, while one that changes only LUT or BRAM
// content decodes those tables from the bytes and reuses its Program.
//
// The package also models the attack surface of Section IV-A: the
// bitstream can be probed from flash (ReadFlash), and the AES bitstream
// key K_E can be recovered through a side-channel oracle standing in for
// the published power-analysis attacks [16]–[18].
package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/obs"
)

// BootStatus mirrors the configuration status signals the paper
// mentions: INIT_B goes low on a CRC mismatch; HMAC failures of
// encrypted images are latched in the BOOTSTS register.
type BootStatus struct {
	// InitBLow reports a configuration abort due to CRC mismatch.
	InitBLow bool
	// BootstsError reports an HMAC authentication failure.
	BootstsError bool
	// Configured reports a successful load.
	Configured bool
}

// FPGA is a simulated SRAM-based FPGA with an optional eFuse-held
// bitstream decryption key.
type FPGA struct {
	kE      [bitstream.KeySize]byte
	flash   []byte // external configuration memory, as probed
	fdri    []byte // live frame region (for readback/partial reconfig)
	status  BootStatus
	loaded  bool
	desc    *bitstream.Description
	lutTT   []boolfn.TT
	bramTab [][]uint64
	inPins  map[string]uint32
	outPins map[string]uint32
	// prog is the configuration compiled to a flat program; st is the
	// 1-lane evaluator state the scalar clock path runs on. Batches
	// share prog and build their own states.
	prog  *Program
	st    *progState
	dirty bool
	// base is the compiled configuration Loads are compared against:
	// the programmed image's, or the first one loaded (see Load).
	base *Compiled
	// tel optionally records configuration-path spans and event counters
	// (SetTelemetry; nil-safe, zero overhead when unset).
	tel *obs.Telemetry
}

// SetTelemetry attaches a telemetry handle: Load, PartialReconfig and
// Readback then record device.* spans and counters. Core attack code
// forwards its handle here through the Victim interface assertion.
func (f *FPGA) SetTelemetry(tel *obs.Telemetry) { f.tel = tel }

// New creates a device whose eFuses hold kE (zero for unencrypted use).
func New(kE [bitstream.KeySize]byte) *FPGA {
	return &FPGA{kE: kE}
}

// Program writes an image into the external flash and configures the
// device from it, like a production programmer would. The image's
// compiled configuration becomes the one later Loads reuse.
func (f *FPGA) Program(img []byte) error {
	return f.ProgramCompiled(img, nil)
}

// ProgramCompiled is Program for an image whose configuration c was
// already compiled, by any device (Compiled). The Load still runs in
// full — CRC or HMAC check, packet parse, byte comparison — and only
// skips the decode and compile when the frame bytes equal c's. A nil c
// is Program.
func (f *FPGA) ProgramCompiled(img []byte, c *Compiled) error {
	f.flash = append([]byte(nil), img...)
	f.base = c
	return f.Load(img)
}

// Compiled returns the compiled configuration the device compares Loads
// against (nil before the first successful Load). It is immutable, so
// it can program any number of other devices through ProgramCompiled.
func (f *FPGA) Compiled() *Compiled { return f.base }

// ReadFlash models the paper's bitstream extraction: "reading the
// bitstream with a probe when it is transferred from the Flash memory to
// the FPGA during configuration".
func (f *FPGA) ReadFlash() []byte {
	return append([]byte(nil), f.flash...)
}

// SideChannelKey is the stand-in for the published side-channel attacks
// recovering the bitstream encryption key K_E from the configuration
// engine's power traces. See DESIGN.md for the substitution rationale.
func (f *FPGA) SideChannelKey() [bitstream.KeySize]byte { return f.kE }

// Load configures the device from a bitstream. Encrypted images are
// decrypted with the eFuse key and authenticated (HMAC failure aborts
// configuration, as reported in BOOTSTS); plain images are CRC checked
// (mismatch pulls INIT_B low and aborts). Configuration is atomic: a
// failed Load leaves a cleared, unconfigured fabric — never a partially
// decoded one — mirroring the house-cleaning pass real devices run
// before writing frames.
//
// Every Load runs the CRC or HMAC check and parses the packets. Its
// frame bytes then take one of three paths against the device's
// Compiled: equal bytes install it with a fresh evaluator state, no
// decode and no compile; an equal description region reuses its
// Program, with the LUT and BRAM tables decoded from the bytes and the
// LUTs that differ patched in; anything else is decoded and compiled in
// full. The first full compile of a device becomes its Compiled.
func (f *FPGA) Load(img []byte) error {
	span := f.tel.StartSpan("device.load", obs.KV("bytes", len(img)))
	defer span.End()
	f.tel.Counter("device.loads").Inc()
	f.loaded = false
	f.status = BootStatus{}
	f.clear() // full reconfiguration starts from a cleared fabric
	packets := img
	if bitstream.IsEncrypted(img) {
		plain, _, macOK, err := bitstream.Open(img, f.kE)
		if err != nil {
			f.status.BootstsError = true
			f.tel.Counter("device.load_errors").Inc()
			return fmt.Errorf("device: decryption failed: %w", err)
		}
		if !macOK {
			f.status.BootstsError = true
			f.tel.Counter("device.load_errors").Inc()
			return errors.New("device: HMAC verification failed (BOOTSTS=1), configuration aborted")
		}
		packets = plain
	} else if err := bitstream.CheckCRC(img); err != nil {
		f.status.InitBLow = true
		f.tel.Counter("device.load_errors").Inc()
		return fmt.Errorf("device: %w", err)
	}
	p, err := bitstream.ParsePackets(packets)
	if err != nil {
		f.tel.Counter("device.load_errors").Inc()
		return fmt.Errorf("device: %w", err)
	}
	fdri := p.FDRI(packets)
	if c := f.base; c != nil && bytes.Equal(fdri, c.cfg.fdri) {
		f.tel.Counter("device.identical_loads").Inc()
		f.commit(&c.cfg, false)
	} else {
		cfg, err := decodeConfig(fdri, f.base)
		if err != nil {
			f.tel.Counter("device.load_errors").Inc()
			return err
		}
		f.commit(cfg, false)
	}
	f.loaded = true
	f.status.Configured = true
	return nil
}

// clear wipes the live configuration.
func (f *FPGA) clear() {
	f.desc = nil
	f.lutTT = nil
	f.bramTab = nil
	f.inPins = nil
	f.outPins = nil
	f.prog = nil
	f.st = nil
	f.fdri = nil
	f.dirty = false
}

// config is a fully decoded frame region, staged before being committed
// to the live fabric. Once committed it is never written again: devices
// replace a config, they do not edit one, so a Compiled's config can be
// installed by many devices at once.
type config struct {
	desc    *bitstream.Description
	lutTT   []boolfn.TT
	bramTab [][]uint64
	fdri    []byte // owned copy
	descRaw []byte // the description region of fdri
	// base is the Compiled whose description this config reuses (its
	// description bytes were equal), nil when the config needs its own
	// compile.
	base *Compiled
}

// Compiled is one decoded configuration — description, LUT truth
// tables, BRAM content and the frame bytes they were read from — plus
// the Program it compiles to. It is immutable: a device that loads the
// same bytes again, a device programmed from a cached image, and every
// Batch over them share it, each with evaluator state of its own.
type Compiled struct {
	cfg     config
	prog    *Program
	inPins  map[string]uint32
	outPins map[string]uint32
}

// Bytes estimates the heap a Compiled holds — frame bytes, decoded
// tables and compiled program — for caches that bound what they keep.
func (c *Compiled) Bytes() int {
	n := len(c.cfg.fdri) + 8*len(c.cfg.lutTT)
	for _, tab := range c.cfg.bramTab {
		n += 8 * len(tab)
	}
	p := c.prog
	n += 12*len(p.insns) + 4*len(p.args) + 8*len(p.sites) + 8*len(p.baseTT)
	for _, rows := range p.baseRows {
		n += 8 * len(rows)
	}
	return n
}

// decodeConfig decodes a frame region without touching the live
// configuration, so errors cannot leave a partially-written fabric.
// When base is non-nil and the region's description bytes equal base's,
// the description is base's (the same bytes decode and validate to the
// same description) and the config is marked to reuse base's Program;
// the LUT and BRAM tables are always read from fdri.
func decodeConfig(fdri []byte, base *Compiled) (*config, error) {
	regions, err := bitstream.ParseRegions(fdri)
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	descRaw := fdri[regions.DescOff : regions.DescOff+regions.DescLen]
	var desc *bitstream.Description
	if base != nil && bytes.Equal(descRaw, base.cfg.descRaw) {
		desc = base.cfg.desc
	} else {
		base = nil
		if desc, err = bitstream.UnmarshalDescription(descRaw); err != nil {
			return nil, fmt.Errorf("device: %w", err)
		}
		// Validated first: slice types and BRAM widths drive the reads below.
		if err := validate(desc); err != nil {
			return nil, fmt.Errorf("device: %w", err)
		}
	}
	clb := fdri[regions.CLBOff : regions.CLBOff+regions.CLBLen]
	lutTT := make([]boolfn.TT, len(desc.LUTs))
	for i, rec := range desc.LUTs {
		tt, err := bitstream.ReadLUT(clb, rec.Loc)
		if err != nil {
			return nil, fmt.Errorf("device: LUT %d: %w", i, err)
		}
		lutTT[i] = tt
	}
	bram := fdri[regions.BRAMOff : regions.BRAMOff+regions.BRAMLen]
	bramTab := make([][]uint64, len(desc.BRAMs))
	for i, rec := range desc.BRAMs {
		entries := 1 << len(rec.Addr)
		if rec.ContentOff+8*entries > len(bram) {
			return nil, fmt.Errorf("device: BRAM %d content out of range", i)
		}
		tab := make([]uint64, entries)
		for e := 0; e < entries; e++ {
			tab[e] = binary.BigEndian.Uint64(bram[rec.ContentOff+8*e:])
		}
		bramTab[i] = tab
	}
	owned := append([]byte(nil), fdri...)
	return &config{
		desc:    desc,
		lutTT:   lutTT,
		bramTab: bramTab,
		fdri:    owned,
		descRaw: owned[regions.DescOff : regions.DescOff+regions.DescLen],
		base:    base,
	}, nil
}

// commit installs a staged configuration over a fresh evaluator state.
// Its Program is the reused base's when the config names one, else a
// fresh compile, which becomes the device's Compiled if it has none.
// Partial reconfiguration preserves register state when the register
// structure is unchanged; a full (re)configuration resets it.
func (f *FPGA) commit(cfg *config, preserveFF bool) {
	c := cfg.base
	if c == nil {
		c = newCompiled(cfg, f.tel)
		if f.base == nil {
			f.base = c
		}
	} else {
		f.tel.Counter("device.reuses").Inc()
	}
	f.desc = cfg.desc
	f.lutTT = cfg.lutTT
	f.bramTab = cfg.bramTab
	f.fdri = cfg.fdri
	f.inPins = c.inPins
	f.outPins = c.outPins
	old := f.st
	f.prog = c.prog
	f.st = newProgState(f.prog, cfg.lutTT, cfg.bramTab, 1)
	if preserveFF && old != nil && len(old.ff) == len(f.st.ff) {
		old.materializeFF()
		copy(f.st.ff, old.ff)
	}
	f.dirty = true
}

// newCompiled compiles a decoded configuration. The Compiled's own
// config names it as its base, so installing it reuses its Program.
func newCompiled(cfg *config, tel *obs.Telemetry) *Compiled {
	c := &Compiled{cfg: *cfg, inPins: map[string]uint32{}, outPins: map[string]uint32{}}
	c.cfg.base = c
	for _, port := range cfg.desc.Ports {
		if port.Dir == bitstream.In {
			c.inPins[port.Name] = port.Net
		} else {
			c.outPins[port.Name] = port.Net
		}
	}
	c.prog = compile(cfg.desc, cfg.lutTT, tel)
	return c
}

// CompileStats reports the statistics of the currently loaded
// configuration's compiled program (zero when unconfigured).
func (f *FPGA) CompileStats() CompileStats {
	if f.prog == nil {
		return CompileStats{}
	}
	return f.prog.stats
}

// PartialReconfig overwrites one configuration frame of the running
// device — the JTAG FAR + FDRI single-frame write. Untouched registers
// keep their state, so faults can be injected without a full
// reconfiguration cycle. Refused for secured (encrypted-boot) devices,
// as on real silicon. The write is atomic: the patched region is decoded
// into a staged configuration first, so a rejected frame leaves the
// running configuration — including register state and readback —
// completely untouched.
func (f *FPGA) PartialReconfig(frame int, data []byte) error {
	span := f.tel.StartSpan("device.partial_reconfig", obs.KV("frame", frame))
	defer span.End()
	f.tel.Counter("device.partial_reconfigs").Inc()
	if !f.loaded {
		return errors.New("device: partial reconfiguration before configuration")
	}
	if bitstream.IsEncrypted(f.flash) {
		return errors.New("device: partial reconfiguration disabled for encrypted configurations")
	}
	if len(data) != bitstream.FrameBytes {
		return fmt.Errorf("device: frame write must be %d bytes, got %d", bitstream.FrameBytes, len(data))
	}
	if frame < 0 || (frame+1)*bitstream.FrameBytes > len(f.fdri) {
		return fmt.Errorf("device: frame address %d out of range", frame)
	}
	staged := append([]byte(nil), f.fdri...)
	copy(staged[frame*bitstream.FrameBytes:], data)
	cfg, err := decodeConfig(staged, f.base)
	if err != nil {
		return err
	}
	// Patch-only fast path: a CLB or BRAM frame write cannot change the
	// shared structure, so instead of recompiling we rewrite only the
	// affected instructions' operand tables in the running state. Header
	// and description frames fall back to a full commit + recompile.
	if kind, ok := f.frameKind(frame); ok && f.prog != nil {
		switch kind {
		case bitstream.FrameCLB:
			patched := 0
			for i, tt := range cfg.lutTT {
				if tt != f.lutTT[i] {
					f.st.patchLUTAll(i, tt)
					patched++
				}
			}
			f.tel.Counter("device.patched_insns").Add(int64(patched))
			f.adoptConfig(cfg)
			return nil
		case bitstream.FrameBRAM:
			touched := false
			for i, tab := range cfg.bramTab {
				if !equalTabs(tab, f.bramTab[i]) {
					f.st.setTabAll(i, tab)
					touched = true
				}
			}
			if touched {
				f.st.prologue()
			}
			f.adoptConfig(cfg)
			return nil
		}
	}
	f.commit(cfg, true)
	return nil
}

// frameKind classifies a frame index of the live FDRI region.
func (f *FPGA) frameKind(frame int) (bitstream.FrameRegion, bool) {
	regions, err := bitstream.ParseRegions(f.fdri)
	if err != nil {
		return 0, false
	}
	kind, _, err := regions.ClassifyFrame(frame)
	return kind, err == nil
}

// adoptConfig installs the staged data of a patch-only partial
// reconfiguration: the structure is unchanged, so the compiled program
// and evaluator state stay, already patched in place.
func (f *FPGA) adoptConfig(cfg *config) {
	f.desc = f.prog.desc // structurally identical; keep the compiled one
	f.lutTT = cfg.lutTT
	f.bramTab = cfg.bramTab
	f.fdri = cfg.fdri
	f.dirty = true
}

func equalTabs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Status returns the boot status of the last Load attempt.
func (f *FPGA) Status() BootStatus { return f.status }

// Readback reconstructs the current configuration frames from device
// state — the 7-series configuration readback path (FDRO register), the
// second bitstream-access primitive of the attack model besides the
// flash probe. The returned bytes are the FDRI frame region: header
// frame, CLB frames with the *currently loaded* LUT truth tables,
// description frames and BRAM content. Readback of an encrypted-boot
// device would be disabled on real silicon; our model mirrors that by
// refusing when the last image was encrypted.
func (f *FPGA) Readback() ([]byte, error) {
	span := f.tel.StartSpan("device.readback")
	defer span.End()
	f.tel.Counter("device.readbacks").Inc()
	if !f.loaded {
		return nil, errors.New("device: readback before configuration")
	}
	if bitstream.IsEncrypted(f.flash) {
		return nil, errors.New("device: readback disabled for encrypted configurations (SBITS)")
	}
	descBytes := bitstream.MarshalDescription(f.desc)
	descFrames := (len(descBytes) + bitstream.FrameBytes - 1) / bitstream.FrameBytes
	total := 1 + f.desc.CLBFrames + descFrames + f.desc.BRAMFrames
	fdri := make([]byte, total*bitstream.FrameBytes)
	bitstream.WriteFDRIHeader(fdri[:bitstream.FrameBytes],
		f.desc.CLBFrames, descFrames, f.desc.BRAMFrames, len(descBytes))
	clb := fdri[bitstream.FrameBytes : bitstream.FrameBytes*(1+f.desc.CLBFrames)]
	for i, rec := range f.desc.LUTs {
		if err := bitstream.WriteLUT(clb, rec.Loc, f.lutTT[i]); err != nil {
			return nil, err
		}
	}
	copy(fdri[bitstream.FrameBytes*(1+f.desc.CLBFrames):], descBytes)
	bram := fdri[bitstream.FrameBytes*(1+f.desc.CLBFrames+descFrames):]
	for i, rec := range f.desc.BRAMs {
		off := rec.ContentOff
		for _, w := range f.bramTab[i] {
			binary.BigEndian.PutUint64(bram[off:], w)
			off += 8
		}
	}
	return fdri, nil
}

// MaxNets is the fabric capacity: the largest net count a description
// may declare, mirroring the finite fabric of real silicon. It also
// guarantees every compiled register slot — nets, synthesis temporaries
// and clock-edge spill registers — fits the 16-bit operand fields of
// the flat instruction encoding.
const MaxNets = 16384

// maxBRAMAddrBits bounds a block RAM's address width (a cascaded pair
// of 7-series RAMB36 holds 64K entries), so 1<<len(Addr) stays small.
const maxBRAMAddrBits = 16

// validate checks net references, slice types and table widths before
// the description is trusted with any table read or compiled program.
func validate(d *bitstream.Description) error {
	if d.NumNets > MaxNets {
		return fmt.Errorf("description declares %d nets, fabric capacity is %d", d.NumNets, MaxNets)
	}
	ok := func(ids ...uint32) bool {
		for _, id := range ids {
			if id >= d.NumNets {
				return false
			}
		}
		return true
	}
	for _, p := range d.Ports {
		if !ok(p.Net) {
			return fmt.Errorf("port %s references invalid net", p.Name)
		}
	}
	for i, ff := range d.FFs {
		if !ok(ff.Q, ff.D) {
			return fmt.Errorf("flip-flop %d references invalid net", i)
		}
	}
	for i, b := range d.BRAMs {
		if len(b.Addr) > maxBRAMAddrBits || len(b.Out) > LaneWordBits || !ok(b.Addr...) || !ok(b.Out...) {
			return fmt.Errorf("BRAM %d: %d address bits, %d outputs or an invalid net", i, len(b.Addr), len(b.Out))
		}
	}
	for i, a := range d.Adders {
		if len(a.B) != len(a.A) || len(a.Sum) != len(a.A) || !ok(a.A...) || !ok(a.B...) || !ok(a.Sum...) {
			return fmt.Errorf("adder %d: ragged operands or an invalid net", i)
		}
	}
	for i, l := range d.LUTs {
		if !ok(l.O6) || (l.O5 != bitstream.NoNet && !ok(l.O5)) {
			return fmt.Errorf("LUT %d output invalid", i)
		}
		if len(l.Inputs) > 6 || !ok(l.Inputs...) {
			return fmt.Errorf("LUT %d: %d inputs or an invalid one", i, len(l.Inputs))
		}
		if l.Loc.Type > bitstream.SliceM {
			return fmt.Errorf("LUT %d has unknown slice type %d", i, l.Loc.Type)
		}
	}
	for i, e := range d.Eval {
		var n int
		switch e.Kind {
		case bitstream.EvalLUT:
			n = len(d.LUTs)
		case bitstream.EvalBRAM:
			n = len(d.BRAMs)
		case bitstream.EvalAdder:
			n = len(d.Adders)
		default:
			return fmt.Errorf("eval item %d has unknown kind", i)
		}
		if int(e.Index) >= n {
			return fmt.Errorf("eval item %d index out of range", i)
		}
	}
	return nil
}

// Reset returns all registers to their configuration-time init values.
func (f *FPGA) Reset() {
	f.st.reset()
	f.dirty = true
}

// SetInput drives an input pin by name.
func (f *FPGA) SetInput(name string, v bool) {
	net, ok := f.inPins[name]
	if !ok {
		panic(fmt.Sprintf("device: no input pin %q", name))
	}
	if v {
		f.st.regs[net] = ^uint64(0)
	} else {
		f.st.regs[net] = 0
	}
	f.dirty = true
}

// Clock advances one cycle: evaluate the compiled program, then latch
// every flip-flop.
func (f *FPGA) Clock() {
	if !f.loaded {
		panic("device: Clock before successful Load")
	}
	f.st.clock()
	f.dirty = true
}

// Read samples an output pin after the last clock edge.
func (f *FPGA) Read(name string) bool {
	net, ok := f.outPins[name]
	if !ok {
		panic(fmt.Sprintf("device: no output pin %q", name))
	}
	if f.dirty {
		f.st.settle()
		f.dirty = false
	}
	return f.st.regs[net]&1 == 1
}

// Loaded reports whether the device currently holds a valid
// configuration.
func (f *FPGA) Loaded() bool { return f.loaded }

// FlipFlops reports every flip-flop's current value in description
// order, nil when unconfigured (diagnostics: two devices in the same
// register state report the same values).
func (f *FPGA) FlipFlops() []bool {
	if !f.loaded {
		return nil
	}
	f.st.materializeFF()
	out := make([]bool, len(f.st.ff))
	for i, w := range f.st.ff {
		out[i] = w&1 == 1
	}
	return out
}
