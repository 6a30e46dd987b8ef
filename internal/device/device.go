// Package device simulates the victim FPGA. An FPGA instance configures
// itself exclusively from raw bitstream bytes — parsing packets, checking
// the configuration CRC (or the HMAC of an encrypted image), extracting
// LUT truth tables from the CLB frames and block-RAM content from the
// BRAM frames — and then executes the configured circuit cycle-
// accurately. Because the LUT logic is re-read from the bytes on every
// Load, bitstream modifications change device behaviour exactly as on
// real hardware, which is the property the attack exploits.
//
// The package also models the attack surface of Section IV-A: the
// bitstream can be probed from flash (ReadFlash), and the AES bitstream
// key K_E can be recovered through a side-channel oracle standing in for
// the published power-analysis attacks [16]–[18].
package device

import (
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
// device from it, like a production programmer would.
func (f *FPGA) Program(img []byte) error {
	f.flash = append([]byte(nil), img...)
	return f.Load(img)
}

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
	cfg, err := decodeConfig(p.FDRI(packets))
	if err != nil {
		f.tel.Counter("device.load_errors").Inc()
		return err
	}
	f.commit(cfg, false)
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
// to the live fabric.
type config struct {
	desc    *bitstream.Description
	lutTT   []boolfn.TT
	bramTab [][]uint64
	fdri    []byte // owned copy
}

// decodeConfig decodes a frame region without touching the live
// configuration, so errors cannot leave a partially-written fabric.
func decodeConfig(fdri []byte) (*config, error) {
	regions, err := bitstream.ParseRegions(fdri)
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	desc, err := bitstream.UnmarshalDescription(fdri[regions.DescOff : regions.DescOff+regions.DescLen])
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	// Validated first: slice types and BRAM widths drive the reads below.
	if err := validate(desc); err != nil {
		return nil, fmt.Errorf("device: %w", err)
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
	return &config{
		desc:    desc,
		lutTT:   lutTT,
		bramTab: bramTab,
		fdri:    append([]byte(nil), fdri...),
	}, nil
}

// commit installs a staged configuration, compiling it into a fresh
// Program. Partial reconfiguration preserves register state when the
// register structure is unchanged; a full (re)configuration resets it.
func (f *FPGA) commit(cfg *config, preserveFF bool) {
	f.desc = cfg.desc
	f.lutTT = cfg.lutTT
	f.bramTab = cfg.bramTab
	f.fdri = cfg.fdri
	f.inPins = map[string]uint32{}
	f.outPins = map[string]uint32{}
	for _, port := range cfg.desc.Ports {
		if port.Dir == bitstream.In {
			f.inPins[port.Name] = port.Net
		} else {
			f.outPins[port.Name] = port.Net
		}
	}
	old := f.st
	f.prog = compile(cfg.desc, cfg.lutTT, f.tel)
	f.st = newProgState(f.prog, cfg.lutTT, cfg.bramTab, 1)
	if preserveFF && old != nil && len(old.ff) == len(f.st.ff) {
		old.materializeFF()
		copy(f.st.ff, old.ff)
	}
	f.dirty = true
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
	cfg, err := decodeConfig(staged)
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

// LUTCount reports the number of configured physical LUTs (diagnostics).
func (f *FPGA) LUTCount() int { return len(f.desc.LUTs) }
