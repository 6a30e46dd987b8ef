package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"snowbma/internal/core"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
	"snowbma/internal/victim"
)

// Job kinds accepted by the engine.
const (
	// KindAttack runs the paper-faithful end-to-end attack against a
	// freshly synthesized (or cached) victim.
	KindAttack = "attack"
	// KindCensus runs the catalogue-free census-guided attack variant.
	KindCensus = "census"
	// KindFindLUT synthesizes the victim and runs the FINDLUT batch scan
	// for one Boolean function over its flash image.
	KindFindLUT = "findlut"
	// KindCampaign runs a randomized multi-scenario attack campaign.
	KindCampaign = "campaign"
	// KindCorpus runs a census-at-scale pass over a seeded design corpus
	// through one shared scanner.
	KindCorpus = "corpus"
)

// Job states. A job moves queued → running → one of the terminal
// states; Cancel short-circuits a queued job straight to cancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// ErrSpec is wrapped by Submit for invalid job specifications.
var ErrSpec = errors.New("service: invalid job spec")

// VictimSpec describes the victim a job synthesizes, mirroring
// victim.Config except that encryption is requested by flag: the
// protection keys derive deterministically from the placement seed
// (victim.DeriveKeys), so a job spec is plain JSON with no key material.
type VictimSpec struct {
	Key             snow3g.Key `json:"key"`
	Protected       bool       `json:"protected,omitempty"`
	AutoProtectBits int        `json:"auto_protect_bits,omitempty"`
	Encrypted       bool       `json:"encrypted,omitempty"`
	PadFrames       int        `json:"pad_frames,omitempty"`
	Seed            int64      `json:"seed,omitempty"`
}

// Config translates the wire spec into a victim build config. Exported
// because the fleet coordinator derives its shard key from the same
// translation (victim.Config.Fingerprint), so routing and execution can
// never disagree about which design a job builds.
func (vs VictimSpec) Config() victim.Config {
	cfg := victim.Config{
		Key:             vs.Key,
		Protected:       vs.Protected,
		AutoProtectBits: vs.AutoProtectBits,
		PadFrames:       vs.PadFrames,
		Seed:            vs.Seed,
	}
	if vs.Encrypted {
		seed := vs.Seed
		if seed == 0 {
			seed = victim.DefaultSeed
		}
		k := victim.DeriveKeys(seed)
		cfg.Encrypt = &k
	}
	return cfg
}

// CampaignSpec parameterizes a campaign job (campaign.Config without
// the telemetry handle, which the engine owns).
type CampaignSpec struct {
	Runs     int   `json:"runs"`
	Parallel int   `json:"parallel,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	Chaos    bool  `json:"chaos,omitempty"`
}

// CorpusSpec parameterizes a corpus census job: a seeded design corpus
// (corpus.SeedOptions) plus the census engine knobs. The fleet
// coordinator shards one corpus submission into per-worker Indices
// subsets, so routing and execution derive designs from the same
// (seed, index) pairs.
type CorpusSpec struct {
	// Designs is the corpus size ([0, Designs) unless Indices narrows).
	Designs int `json:"designs"`
	// Seed is the master corpus seed; (Seed, index) fully determines
	// each design.
	Seed int64 `json:"seed,omitempty"`
	// Indices selects an explicit design subset — the fleet's shard unit.
	Indices []int `json:"indices,omitempty"`
	// Parallel bounds the scan worker pool (0 = all CPUs); Workers the
	// synthesis pipeline (0 = engine default).
	Parallel int `json:"parallel,omitempty"`
	Workers  int `json:"workers,omitempty"`
	// Expr overrides the census target function ("" = the W-XOR target).
	Expr string `json:"expr,omitempty"`
}

// JobSpec is the wire-format job submission.
type JobSpec struct {
	Kind string `json:"kind"`
	// Tenant names the submitting tenant for fair scheduling: weights,
	// quotas and priority classes come from Config.Tenants. Empty is
	// the anonymous tenant, scheduled under the default contract.
	Tenant string `json:"tenant,omitempty"`
	// Victim and IV drive attack, census and findlut jobs.
	Victim VictimSpec `json:"victim,omitempty"`
	IV     snow3g.IV  `json:"iv,omitempty"`
	// RecomputeCRC makes the attack recompute frame CRCs instead of
	// disabling the check.
	RecomputeCRC bool `json:"recompute_crc,omitempty"`
	// Expr is the findlut search function: paper notation
	// ("(a1^a2^a3)a4a5!a6") or an INIT literal ("64'hFFF7F7FF00080800").
	Expr string `json:"expr,omitempty"`
	// Parallel bounds the findlut scan worker pool (0 = all CPUs).
	Parallel int `json:"parallel,omitempty"`
	// Campaign parameterizes a campaign job.
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	// Corpus parameterizes a corpus census job.
	Corpus *CorpusSpec `json:"corpus,omitempty"`
	// TimeoutMS bounds the job's execution once it starts running;
	// time spent queued does not consume the budget.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Validate checks the spec without executing it. Exported because the
// fleet coordinator's mirror API must reject exactly what the engine
// would reject, with the same wrapped ErrSpec — one validator, one
// error shape on both servers.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindAttack, KindCensus:
	case KindFindLUT:
		if s.Expr == "" {
			return fmt.Errorf("%w: findlut jobs need an expr", ErrSpec)
		}
	case KindCampaign:
		if s.Campaign == nil || s.Campaign.Runs < 1 {
			return fmt.Errorf("%w: campaign jobs need campaign.runs >= 1", ErrSpec)
		}
	case KindCorpus:
		c := s.Corpus
		if c == nil {
			return fmt.Errorf("%w: corpus jobs need a corpus spec", ErrSpec)
		}
		if c.Designs < 1 && len(c.Indices) == 0 {
			return fmt.Errorf("%w: corpus jobs need corpus.designs >= 1 or corpus.indices", ErrSpec)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q (want %s|%s|%s|%s|%s)",
			ErrSpec, s.Kind, KindAttack, KindCensus, KindFindLUT, KindCampaign, KindCorpus)
	}
	if err := s.checkSizes(); err != nil {
		return err
	}
	if c := s.Corpus; c != nil {
		for _, i := range c.Indices {
			if i < 0 {
				return fmt.Errorf("%w: corpus.indices must be non-negative, got %d", ErrSpec, i)
			}
			if c.Designs > 0 && i >= c.Designs {
				return fmt.Errorf("%w: corpus index %d outside [0, %d)", ErrSpec, i, c.Designs)
			}
		}
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("%w: timeout_ms must be non-negative, got %d", ErrSpec, s.TimeoutMS)
	}
	if len(s.Tenant) > 64 {
		return fmt.Errorf("%w: tenant name longer than 64 bytes", ErrSpec)
	}
	return nil
}

// checkSizes holds every size field to [0, its cap] whatever the kind:
// a section the kind never reads is still stored and forwarded. An
// absent section checks as its zero value.
func (s JobSpec) checkSizes() error {
	var camp CampaignSpec
	if s.Campaign != nil {
		camp = *s.Campaign
	}
	var corp CorpusSpec
	if s.Corpus != nil {
		corp = *s.Corpus
	}
	for _, z := range []struct {
		field  string
		v, max int
	}{
		{"parallel", s.Parallel, MaxSpecWorkers},
		{"victim.pad_frames", s.Victim.PadFrames, MaxSpecPadFrames},
		{"campaign.runs", camp.Runs, MaxSpecRuns},
		{"campaign.parallel", camp.Parallel, MaxSpecWorkers},
		{"corpus.designs", corp.Designs, MaxSpecDesigns},
		{"len(corpus.indices)", len(corp.Indices), MaxSpecDesigns},
		{"corpus.parallel", corp.Parallel, MaxSpecWorkers},
		{"corpus.workers", corp.Workers, MaxSpecWorkers},
	} {
		if z.v < 0 || z.v > z.max {
			return fmt.Errorf("%w: %s must be in [0, %d], got %d", ErrSpec, z.field, z.max, z.v)
		}
	}
	return nil
}

// AttackResult is the JSON result of an attack or census job.
type AttackResult struct {
	Verified bool            `json:"verified"`
	Key      snow3g.Key      `json:"key"`
	IV       snow3g.IV       `json:"iv"`
	Loads    int             `json:"loads"`
	Batch    core.BatchStats `json:"batch"`
	// Victim synthesis metadata (from the build, possibly cached).
	VictimLUTs  int     `json:"victim_luts"`
	VictimDepth int     `json:"victim_depth"`
	CriticalNs  float64 `json:"critical_path_ns"`
}

// FindResult is the JSON result of a findlut job.
type FindResult struct {
	// Matches are byte offsets of candidate LUTs in the victim's flash.
	Matches []int          `json:"matches"`
	Stats   core.ScanStats `json:"stats"`
}

// Job is one unit of service work. All mutable fields are guarded by
// the engine mutex; done is closed exactly once when the job reaches a
// terminal state.
type job struct {
	id     string
	spec   JobSpec
	state  string
	err    string
	result any
	// recovered marks a job re-enqueued from the durable store after a
	// restart; the flag survives further snapshots so operators can tell
	// replayed work from fresh submissions.
	recovered bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel func()        // cancels ctx
	done   chan struct{} // closed on terminal state
	tel    *obs.Telemetry
}

// Status is the wire-format job status view.
type Status struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// Recovered marks a job that was re-enqueued from the durable store
	// after an engine restart.
	Recovered bool       `json:"recovered,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// DurationMS is the run time of a finished job.
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// status snapshots the job under the engine mutex.
func (j *job) status() Status {
	st := Status{
		ID:        j.id,
		Kind:      j.spec.Kind,
		Tenant:    j.spec.Tenant,
		State:     j.state,
		Error:     j.err,
		Recovered: j.recovered,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		if !j.started.IsZero() {
			st.DurationMS = float64(j.finished.Sub(j.started).Nanoseconds()) / 1e6
		}
	}
	return st
}

// Terminal reports whether a job state (or job-event name) is a final
// lifecycle state: done, failed or cancelled.
func Terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}
