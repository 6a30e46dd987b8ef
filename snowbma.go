// Package snowbma is a full reproduction of "Bitstream Modification
// Attack on SNOW 3G" (Moraitis & Dubrova, DATE 2020) as a Go library.
//
// It contains every system the paper's experiments rest on — the SNOW 3G
// cipher, a gate-level RTL generator, a k-LUT technology mapper, the
// Xilinx 7-series bitstream format, a device simulator that configures
// itself from raw bitstream bytes — plus the paper's contribution: the
// FINDLUT search (Algorithm 1), the key-independent bitstream
// exploration technique, end-to-end key extraction, and the trivial-cut
// countermeasure with its complexity analysis.
//
// This file is the facade a downstream user works with:
//
//	victim, _ := snowbma.BuildVictim(snowbma.VictimConfig{Key: key})
//	report, _ := snowbma.Attack(ctx, victim, iv, snowbma.WithLogf(log.Printf))
//	fmt.Printf("recovered key %08x\n", report.Key)
//
// Each operation has one entry point. The context-first ones (Attack,
// CensusAttack, FindLUTs, RunCampaign) honor cancellation at the
// attack's phase and sweep-chunk checkpoints; the first three take
// functional options (WithTelemetry, WithLogf, WithParallel).
//
// The sub-packages under internal/ carry the implementation; their doc
// comments map each module to the paper sections it reproduces (see
// DESIGN.md for the inventory).
package snowbma

import (
	"context"
	"fmt"
	"io"

	"snowbma/internal/boolfn"
	"snowbma/internal/campaign"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
	"snowbma/internal/victim"
)

// Key is a 128-bit SNOW 3G key as four 32-bit words k0..k3 (the paper's
// order: γ loads s4 = k0, ..., s7 = k3).
type Key = snow3g.Key

// IV is a 128-bit initialization vector as four 32-bit words iv0..iv3.
type IV = snow3g.IV

// PaperKey is the key recovered in the paper's Table V — the ETSI
// SNOW 3G test-set key.
var PaperKey = Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}

// PaperIV is the IV implied by Table V through the γ(K, IV) structure.
var PaperIV = IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}

// Keystream runs the reference software cipher (the paper's "software
// model") and returns n keystream words.
func Keystream(key Key, iv IV, n int) []uint32 {
	c := snow3g.New(snow3g.Fault{})
	c.Init(key, iv)
	return c.KeystreamWords(n)
}

// FaultyKeystream runs the software model with the paper's fault
// configuration (used to predict Tables III and IV).
func FaultyKeystream(key Key, iv IV, fsmStuckInit, fsmStuckKeystream, lfsrZero bool, n int) []uint32 {
	c := snow3g.New(snow3g.Fault{
		FSMStuckInit:      fsmStuckInit,
		FSMStuckKeystream: fsmStuckKeystream,
		LFSRZeroLoad:      lfsrZero,
	})
	c.Init(key, iv)
	return c.KeystreamWords(n)
}

// VictimConfig describes the FPGA implementation to synthesize.
type VictimConfig struct {
	// Key is baked into the bitstream (attack model assumption 2).
	Key Key
	// Protected applies the Section VII-A countermeasure during
	// technology mapping, with the paper's hand-picked five decoy words.
	Protected bool
	// AutoProtectBits, when nonzero, plans the countermeasure
	// automatically instead: decoy XORs are selected from the design
	// until the Lemma VII-A bound reaches this security level.
	AutoProtectBits int
	// Encrypt wraps the bitstream in the AES + HMAC envelope of Fig. 1
	// using the given keys (any non-nil value enables encryption).
	Encrypt *EncryptionKeys
	// PadFrames adds empty fabric frames (larger bitstream).
	PadFrames int
	// Seed drives the deterministic placement (0 picks a default).
	Seed int64
}

// EncryptionKeys are the bitstream protection keys: K_E lives in device
// eFuses, K_A is stored inside the encrypted image (Fig. 1).
type EncryptionKeys struct {
	KE [32]byte
	KA [32]byte
}

// Victim bundles the simulated device with its design metadata.
type Victim struct {
	Device *device.FPGA
	// Image is the programmed flash content.
	Image []byte
	// LUTs is the number of logical LUTs after mapping.
	LUTs int
	// Depth is the mapped LUT depth; CriticalPathNs the modelled
	// critical path (paper Section VII-A compares 6.313 vs 7.514 ns).
	Depth          int
	CriticalPathNs float64
	// CriticalEndpoint names the path endpoint (register or output).
	CriticalEndpoint string
}

// BuildVictim synthesizes the SNOW 3G design (RTL generation, technology
// mapping, placement, bitstream assembly) and programs a simulated FPGA
// with it, through the shared internal/victim pipeline (the same one the
// campaign engine and the job service use).
func BuildVictim(cfg VictimConfig) (*Victim, error) {
	vcfg := victim.Config{
		Key:             cfg.Key,
		Protected:       cfg.Protected,
		AutoProtectBits: cfg.AutoProtectBits,
		PadFrames:       cfg.PadFrames,
		Seed:            cfg.Seed,
	}
	if cfg.Encrypt != nil {
		vcfg.Encrypt = &victim.Keys{KE: cfg.Encrypt.KE, KA: cfg.Encrypt.KA}
	}
	v, err := victim.Build(vcfg)
	if err != nil {
		return nil, fmt.Errorf("snowbma: %w", err)
	}
	return &Victim{
		Device:           v.Device,
		Image:            v.Image,
		LUTs:             v.LUTs,
		Depth:            v.Depth,
		CriticalPathNs:   v.CriticalPathNs,
		CriticalEndpoint: v.CriticalEndpoint,
	}, nil
}

// Keystream drives the victim's cipher protocol with the given IV.
func (v *Victim) Keystream(iv IV, n int) []uint32 {
	return hdl.GenerateKeystream(v.Device, iv, n)
}

// Report is the attack outcome (re-exported from the core package).
type Report = core.Report

// BatchStats is the bitsliced candidate-sweep accounting of a run:
// fabric passes and lanes executed by the simulator, kept separate from
// Report.Loads (modeled hardware reconfigurations, one per candidate).
type BatchStats = core.BatchStats

// DefaultLanes is the sweep width every entry point uses: one full
// 64-lane register word. The standard attack's sweeps hold 44
// candidates in total, so each of its fabric passes fits in one word.
const DefaultLanes = core.DefaultLanes

// ErrCancelled is returned (wrapped) when a context-first entrypoint is
// cancelled: the attack stops at its next checkpoint (between phases
// and candidate-sweep chunks), restores the victim's original
// bitstream, and reports no key.
var ErrCancelled = core.ErrCancelled

// Option configures a context-first entrypoint (Attack, CensusAttack,
// FindLUTs).
type Option func(*options)

type options struct {
	tel      *Telemetry
	logf     func(string, ...any)
	parallel int
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTelemetry attaches an observability handle: every attack phase,
// scanner pass, sweep chunk and device event is recorded into tel's
// tracer and metrics registry.
func WithTelemetry(tel *Telemetry) Option { return func(o *options) { o.tel = tel } }

// WithLogf attaches a printf-style progress logger.
func WithLogf(logf func(string, ...any)) Option { return func(o *options) { o.logf = logf } }

// WithParallel bounds the FindLUTs and CensusCorpus scan worker pools
// (0 = all CPUs). Attack entrypoints ignore it.
func WithParallel(n int) Option { return func(o *options) { o.parallel = n } }

// Attack executes the complete bitstream modification attack against
// the victim: probe flash (decrypting via the side-channel oracle when
// needed), disable the CRC, FINDLUT + verification for the z_t and
// feedback paths, the key-independent exploration, fault injection and
// LFSR rewind. Cancelling ctx stops the attack at its next checkpoint
// — between phases and between candidate-sweep chunks — with an error
// wrapping ErrCancelled, after restoring the original bitstream.
func Attack(ctx context.Context, v *Victim, iv IV, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	atk, err := newAttack(ctx, v, iv, o)
	if err != nil {
		return nil, err
	}
	return atk.Run()
}

// newAttack assembles a configured core attack from facade options.
func newAttack(ctx context.Context, v *Victim, iv IV, o options) (*core.Attack, error) {
	atk, err := core.NewAttack(v.Device, iv, o.logf)
	if err != nil {
		return nil, err
	}
	atk.SetTelemetry(o.tel)
	atk.SetContext(ctx)
	return atk, nil
}

// Telemetry is the unified observability handle of an attack run: a
// phase-span tracer, a metrics registry backing the report counters, and
// an optional structured logger. A nil *Telemetry disables everything at
// zero cost.
type Telemetry = obs.Telemetry

// NewTelemetry creates a telemetry handle with a fresh span tracer and
// metrics registry.
func NewTelemetry() *Telemetry { return obs.New() }

// WriteTrace streams the telemetry handle's span tree and a metrics
// snapshot to w as NDJSON (one JSON object per line; see internal/obs
// for the line schema and tools/tracestat for the analyzer). A nil
// handle writes only the schema meta line.
func WriteTrace(w io.Writer, tel *Telemetry) error {
	if tel == nil {
		return obs.WriteNDJSON(w, nil, nil)
	}
	return obs.WriteNDJSON(w, tel.Tracer, tel.Metrics)
}

// CensusAttack executes the catalogue-free variant: target LUT classes
// are discovered from the extracted-LUT census by their XOR structure
// and all fault tables are derived from the class functions — no
// Table II guessing. See core.RunCensusGuided. Cancellation behaves as
// in Attack.
func CensusAttack(ctx context.Context, v *Victim, iv IV, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	atk, err := newAttack(ctx, v, iv, o)
	if err != nil {
		return nil, err
	}
	return atk.RunCensusGuided()
}

// CampaignConfig parameterizes a randomized attack campaign: how many
// scenarios, the worker-pool width, the master seed, whether chaos
// fault-injection scenarios are mixed in.
type CampaignConfig = campaign.Config

// CampaignReport is the deterministic outcome of a campaign: one
// classified result per scenario plus the aggregate verdict tally.
// Identical (Seed, Runs, Chaos) inputs marshal to byte-identical
// JSON regardless of the worker-pool width.
type CampaignReport = campaign.Report

// RunCampaign generates CampaignConfig.Runs randomized end-to-end
// attack scenarios from the master seed — fresh design placement, key,
// IV, optional countermeasure / bitstream encryption /
// injected fault per scenario — executes each over a bounded worker
// pool with a golden-model conformance pre-check, and aggregates the
// typed verdicts (key recovered / clean failure / invariant violation).
// When ctx is cancelled, no new scenarios start, in-flight attacks stop
// at their next checkpoint, and the call returns an error wrapping
// ErrCancelled instead of a partial report.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	return campaign.Run(ctx, cfg)
}

// CandidateCount is one row of the Table II / Table VI measurement.
type CandidateCount = core.CandidateCount

// ScanStats describes what the batch scan engine did during a search:
// functions batched, candidates compiled, anchor probes and hits, deep
// comparisons, worker-pool size and per-phase wall time.
type ScanStats = core.ScanStats

// CountCandidates runs FINDLUT on the victim's bitstream for every
// Table II candidate function and reports match counts, plus the
// scan-engine counters of the single batch pass that produced the table.
func CountCandidates(v *Victim, iv IV) ([]CandidateCount, ScanStats, error) {
	atk, err := core.NewAttack(v.Device, iv, nil)
	if err != nil {
		return nil, ScanStats{}, err
	}
	rows := atk.CountCandidates()
	return rows, atk.Report().Scan, nil
}

// FindLUTs searches a raw bitstream for LUTs implementing the Boolean
// expression (paper notation over a1..a6, e.g. "(a1^a2^a3)a4a5!a6") or
// a raw INIT literal ("64'hFFF7F7FF00080800"), and returns the byte
// indexes of all candidates plus the scan-engine counters — the FINDLUT
// tool described in the paper's contribution list. The scan is one
// bounded bitstream pass; cancellation is honored at the pass boundary
// with an error wrapping ErrCancelled.
func FindLUTs(ctx context.Context, bits []byte, expr string, opts ...Option) ([]int, ScanStats, error) {
	o := buildOptions(opts)
	f, err := boolfn.ParseAuto(expr)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, ScanStats{}, fmt.Errorf("%w: %v", ErrCancelled, cerr)
	}
	s := core.NewScanner(core.FindOptions{Parallel: o.parallel})
	s.SetTelemetry(o.tel)
	s.AddFunction("f", f)
	res := s.Scan(bits)
	matches := res.Matches["f"]
	out := make([]int, len(matches))
	for i, m := range matches {
		out[i] = m.Index
	}
	return out, res.Stats, nil
}

// DualXORHits runs the Section VII-B search over [lo, hi) byte positions
// (hi ≤ 0 scans to the end): dual-output LUTs with a 2-input XOR in one
// half. It also returns the scan-engine counters — notably how many
// probe positions passed the 16-bit lane prefilter and paid for an
// exact lane-key check.
func DualXORHits(bits []byte, lo, hi int) ([]int, ScanStats) {
	s := core.NewScanner(core.FindOptions{})
	s.AddDualXOR("w", lo, hi)
	res := s.Scan(bits)
	return res.DualHits["w"], res.Stats
}

// SearchEffortBits returns log2 of the exhaustive effort of locating m
// targets among m+r identically-shaped candidates (Section VII-C).
func SearchEffortBits(m, r int) float64 { return core.SearchEffort(m, r) }

// LemmaBoundBits returns the Lemma VII-A upper bound, as log2.
func LemmaBoundBits(m, r int) float64 { return core.LemmaBound(m, r) }

// MinDecoyRatio returns the smallest x with r = m·x decoys reaching the
// requested security level (the paper's x ≥ 16/e − 1 ≈ 4.9 for 2¹²⁸).
func MinDecoyRatio(m, securityBits int) int { return core.MinDecoyRatio(m, securityBits) }

// RecoverKey rewinds a 16-word faulty keystream (FSM output stuck at 0)
// to the initial LFSR state and extracts the key and IV.
func RecoverKey(z []uint32) (Key, IV, error) {
	k, iv, _, err := snow3g.RecoverFromKeystream(z)
	return k, iv, err
}

// UEA2Encrypt applies the 3GPP confidentiality function f8 (UEA2 /
// 128-EEA1, whose core is SNOW 3G — the deployment context the paper's
// introduction motivates) to data in place. Being a stream cipher, the
// same call decrypts.
func UEA2Encrypt(ck [16]byte, count, bearer, direction uint32, data []byte) {
	snow3g.F8(snow3g.ConfidentialityKey(ck), count, bearer, direction, data, len(data)*8)
}

// UIA2MAC computes the 3GPP integrity function f9 (UIA2 / 128-EIA1)
// 32-bit message authentication code.
func UIA2MAC(ik [16]byte, count, fresh, direction uint32, data []byte) uint32 {
	return snow3g.F9(snow3g.IntegrityKey(ik), count, fresh, direction, data, len(data)*8)
}

// CipherKeyToBytes converts a recovered word-form key into the 16-byte
// 3GPP CK/IK layout (first byte = most significant byte of k3).
func CipherKeyToBytes(k Key) [16]byte { return snow3g.KeyToBytes(k) }
