package campaign

import (
	"math/rand"

	"snowbma/internal/campaign/chaos"
	"snowbma/internal/snow3g"
)

// Countermeasure selects the decoy configuration of a scenario's
// technology mapping.
type Countermeasure string

const (
	// CounterNone maps the design without decoys (attackable).
	CounterNone Countermeasure = ""
	// CounterPaper applies the Section VII-A hand-picked five decoy
	// words.
	CounterPaper Countermeasure = "paper"
	// CounterAuto plans decoys automatically to AutoProtectBits.
	CounterAuto Countermeasure = "auto"
)

// Scenario is one randomized end-to-end attack configuration: which
// design is synthesized (key, placement seed, padding, decoys,
// encryption), how the attack runs against it (IV, CRC
// mode, census flow) and which chaos fault — if any — is injected into
// the pipeline. Every field is derived deterministically from Seed, so
// a scenario is replayable in isolation.
type Scenario struct {
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Victim synthesis.
	DesignSeed      int64          `json:"design_seed"`
	Key             snow3g.Key     `json:"key"`
	PadFrames       int            `json:"pad_frames"`
	Countermeasure  Countermeasure `json:"countermeasure,omitempty"`
	AutoProtectBits int            `json:"auto_protect_bits,omitempty"`
	Encrypted       bool           `json:"encrypted"`
	// Attack configuration.
	IV           snow3g.IV `json:"iv"`
	RecomputeCRC bool      `json:"recompute_crc"`
	Census       bool      `json:"census"`
	// Chaos injection (chaos.None when the campaign runs clean).
	Fault chaos.Fault `json:"fault,omitempty"`
	// ExpectRecovery is the scenario's contract: true means the attack
	// must recover the key; false (countermeasure or chaos present)
	// means it must fail with a typed error.
	ExpectRecovery bool `json:"expect_recovery"`
}

// GenerateScenarios derives the campaign's scenario list from the
// master seed. Generation is sequential and independent of Parallel, so
// the list — and therefore the whole report — is a pure function of
// (Seed, Runs, Chaos).
func GenerateScenarios(cfg Config) []Scenario {
	master := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Scenario, cfg.Runs)
	faults := chaos.Faults()
	for i := range out {
		s := Scenario{Index: i, Seed: master.Int63()}
		sr := rand.New(rand.NewSource(s.Seed))
		s.Key = snow3g.Key{sr.Uint32(), sr.Uint32(), sr.Uint32(), sr.Uint32()}
		s.IV = snow3g.IV{sr.Uint32(), sr.Uint32(), sr.Uint32(), sr.Uint32()}
		s.DesignSeed = 1 + sr.Int63n(1<<32)
		_ = sr.Intn(4) // the retired sweep-width draw, kept so every seed keeps its scenario
		if sr.Intn(4) == 0 {
			s.PadFrames = 1 + sr.Intn(2)
		}
		// Decoy configuration: ~1/5 of scenarios carry a countermeasure,
		// a quarter of those the automatically planned variant.
		if sr.Intn(5) == 0 {
			if sr.Intn(4) == 0 {
				s.Countermeasure = CounterAuto
				s.AutoProtectBits = 128
			} else {
				s.Countermeasure = CounterPaper
			}
		}
		s.Encrypted = sr.Intn(4) == 0
		if !s.Encrypted {
			s.RecomputeCRC = sr.Intn(4) == 0
		}
		s.Census = sr.Intn(8) == 0
		if cfg.Chaos && sr.Intn(2) == 0 {
			s.Fault = faults[sr.Intn(len(faults))]
		}
		s.ExpectRecovery = s.Countermeasure == CounterNone && s.Fault == chaos.None
		out[i] = s
	}
	return out
}
