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
	"slices"

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
	kE     [bitstream.KeySize]byte
	flash  []byte // external configuration memory, as probed
	status BootStatus
	// cfg is the live configuration, nil while unconfigured; its base is
	// the Compiled whose Program b runs.
	cfg *config
	// b is the one-lane Batch the scalar pins and clock drive: the scalar
	// device is lane 0 of the batch evaluator, nil while unconfigured.
	b *Batch
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
	f.status = BootStatus{}
	f.cfg, f.b = nil, nil // full reconfiguration starts from a cleared fabric
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
	f.status.Configured = true
	return nil
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
	// regions is fdri's layout, which classifies every frame patch.
	regions *bitstream.Regions
	// base is the Compiled whose description this config reuses (its
	// description bytes were equal), nil when the config needs its own
	// compile. A committed config always names the Compiled it runs.
	base *Compiled
}

// Compiled is one decoded configuration — description, LUT truth
// tables, BRAM content and the frame bytes they were read from — plus
// the Program it compiles to. It is immutable: a device that loads the
// same bytes again, a device programmed from a cached image, and every
// Batch over them share it, each with evaluator state of its own.
type Compiled struct {
	cfg  config
	prog *Program
	// lutsByFrame lists, per CLB frame (relative to the CLB region), the
	// LUTs whose truth tables it holds: the LUTs a patch of that frame
	// must re-read.
	lutsByFrame [][]int
}

// Bytes estimates the heap a Compiled holds — frame bytes, decoded
// tables and compiled program — for caches that bound what they keep.
func (c *Compiled) Bytes() int {
	n := len(c.cfg.fdri) + 8*len(c.cfg.lutTT)
	for _, tab := range c.cfg.bramTab {
		n += 8 * len(tab)
	}
	p := c.prog
	return n + 12*len(p.insns) + 4*len(p.args) + 8*len(p.sites) + 8*len(p.baseTT)
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
		regions: regions,
		base:    base,
	}, nil
}

// commit installs a staged configuration over a fresh one-lane Batch.
// Its Program is the reused base's when the config names one, else a
// fresh compile, which becomes the device's Compiled if it has none.
// Partial reconfiguration preserves register state when the register
// structure is unchanged; a full (re)configuration resets it.
func (f *FPGA) commit(cfg *config, preserveFF bool) {
	if cfg.base == nil {
		c := newCompiled(cfg, f.tel)
		if f.base == nil {
			f.base = c
		}
		cfg = &c.cfg
	} else {
		f.tel.Counter("device.reuses").Inc()
	}
	old := f.b
	f.cfg = cfg
	f.b = newBatch(cfg.base.prog, cfg.lutTT, cfg.bramTab, 1)
	if preserveFF && old != nil && len(old.st.ff) == len(f.b.st.ff) {
		old.st.materializeFF()
		copy(f.b.st.ff, old.st.ff)
	}
}

// newCompiled compiles a decoded configuration. The Compiled's own
// config names it as its base, so installing it reuses its Program.
func newCompiled(cfg *config, tel *obs.Telemetry) *Compiled {
	c := &Compiled{cfg: *cfg, prog: compile(cfg.desc, cfg.lutTT, tel)}
	c.cfg.base = c
	// Every LUT was read from this config's CLB region, so its frame
	// indexes the table.
	c.lutsByFrame = make([][]int, cfg.regions.CLBLen/bitstream.FrameBytes)
	for i, rec := range cfg.desc.LUTs {
		c.lutsByFrame[rec.Loc.Frame] = append(c.lutsByFrame[rec.Loc.Frame], i)
	}
	return c
}

// CompileStats reports the statistics of the currently loaded
// configuration's compiled program (zero when unconfigured).
func (f *FPGA) CompileStats() CompileStats {
	if f.cfg == nil {
		return CompileStats{}
	}
	return f.cfg.base.prog.stats
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
	if f.cfg == nil {
		return errors.New("device: partial reconfiguration before configuration")
	}
	if bitstream.IsEncrypted(f.flash) {
		return errors.New("device: partial reconfiguration disabled for encrypted configurations")
	}
	if len(data) != bitstream.FrameBytes {
		return fmt.Errorf("device: frame write must be %d bytes, got %d", bitstream.FrameBytes, len(data))
	}
	_, _, err := f.cfg.regions.ContentFrame(frame)
	if errors.Is(err, bitstream.ErrFrameRange) {
		return fmt.Errorf("device: frame address %d: %w", frame, err)
	}
	// A CLB or BRAM frame cannot change the shared structure: its staged
	// config reuses the running Compiled, and instead of recompiling, the
	// running state's operand tables are rewritten. Header and
	// description frames take a full commit, which may recompile.
	content := err == nil
	base := f.base
	if content {
		base = f.cfg.base
	}
	staged := append([]byte(nil), f.cfg.fdri...)
	copy(staged[frame*bitstream.FrameBytes:], data)
	cfg, err := decodeConfig(staged, base)
	if err != nil {
		return err
	}
	if !content {
		f.commit(cfg, true)
		return nil
	}
	st := f.b.st
	patched := 0
	for i, tt := range cfg.lutTT {
		if tt != f.cfg.lutTT[i] {
			st.patchLUTAll(i, tt)
			patched++
		}
	}
	f.tel.Counter("device.patched_insns").Add(int64(patched))
	touched := false
	for i, tab := range cfg.bramTab {
		if !slices.Equal(tab, f.cfg.bramTab[i]) {
			st.setTabAll(i, tab)
			touched = true
		}
	}
	if touched {
		st.prologue()
	}
	f.cfg = cfg
	f.b.dirty = true
	return nil
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
	if f.cfg == nil {
		return nil, errors.New("device: readback before configuration")
	}
	if bitstream.IsEncrypted(f.flash) {
		return nil, errors.New("device: readback disabled for encrypted configurations (SBITS)")
	}
	cfg := f.cfg
	descBytes := bitstream.MarshalDescription(cfg.desc)
	descFrames := (len(descBytes) + bitstream.FrameBytes - 1) / bitstream.FrameBytes
	total := 1 + cfg.desc.CLBFrames + descFrames + cfg.desc.BRAMFrames
	fdri := make([]byte, total*bitstream.FrameBytes)
	bitstream.WriteFDRIHeader(fdri[:bitstream.FrameBytes],
		cfg.desc.CLBFrames, descFrames, cfg.desc.BRAMFrames, len(descBytes))
	clb := fdri[bitstream.FrameBytes : bitstream.FrameBytes*(1+cfg.desc.CLBFrames)]
	for i, rec := range cfg.desc.LUTs {
		if err := bitstream.WriteLUT(clb, rec.Loc, cfg.lutTT[i]); err != nil {
			return nil, err
		}
	}
	copy(fdri[bitstream.FrameBytes*(1+cfg.desc.CLBFrames):], descBytes)
	bram := fdri[bitstream.FrameBytes*(1+cfg.desc.CLBFrames+descFrames):]
	for i, rec := range cfg.desc.BRAMs {
		off := rec.ContentOff
		for _, w := range cfg.bramTab[i] {
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

// SetInput drives an input pin by name.
func (f *FPGA) SetInput(name string, v bool) {
	var mask uint64
	if v {
		mask = ^uint64(0)
	}
	f.b.SetInputLanes(name, mask)
}

// Clock advances one cycle: evaluate the compiled program, then latch
// every flip-flop.
func (f *FPGA) Clock() {
	if f.cfg == nil {
		panic("device: Clock before successful Load")
	}
	f.b.ClockBatch()
}

// Read samples an output pin after the last clock edge.
func (f *FPGA) Read(name string) bool { return f.b.ReadLanes(name) == 1 }

// FlipFlops reports every flip-flop's current value in description
// order, nil when unconfigured (diagnostics: two devices in the same
// register state report the same values).
func (f *FPGA) FlipFlops() []bool {
	if f.cfg == nil {
		return nil
	}
	st := f.b.st
	st.materializeFF()
	out := make([]bool, len(st.ff))
	for i, w := range st.ff {
		out[i] = w&1 == 1
	}
	return out
}
