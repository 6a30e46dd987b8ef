// Package campaign runs randomized end-to-end attack campaigns: many
// scenarios — each a freshly synthesized victim with its own key, IV,
// placement, decoy configuration and optional chaos fault —
// executed over a bounded worker pool, with every outcome classified
// into a typed verdict and aggregated into a deterministic JSON report.
//
// The paper demonstrates the attack on a single synthesized design; its
// claims (FINDLUT uniqueness, key-independent exploration, the
// countermeasure's infeasibility bound) are statistical over the space
// of placements, keys and decoy configurations. The campaign engine is
// the correctness-at-scale harness for those claims: a clean scenario
// must end in a verified recovered key, a countermeasure or chaos
// scenario must end in a typed error, and anything else — a panic, a
// wrong key, an unverified success, a golden-model mismatch — is an
// invariant violation that fails the campaign.
//
// Determinism contract: the report is a pure function of (Seed, Runs,
// Chaos). Scenario generation is sequential, execution order is
// irrelevant (results land in their scenario's slot), and the report
// carries no wall-clock data, so identical seeds produce byte-identical
// JSON regardless of the worker-pool width.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"snowbma/internal/campaign/chaos"
	"snowbma/internal/core"
	"snowbma/internal/obs"
)

// Config parameterizes a campaign.
type Config struct {
	// Runs is the number of scenarios to generate and execute.
	Runs int
	// Parallel bounds the worker pool (0 = NumCPU).
	Parallel int
	// Seed fixes the scenario list; identical seeds reproduce the
	// campaign report byte for byte.
	Seed int64
	// Chaos mixes seeded fault-injection scenarios (about half) into
	// the campaign.
	Chaos bool
	// Tel optionally records campaign.* spans and counters.
	Tel *obs.Telemetry
}

// ErrConfig is wrapped by Run for invalid campaign configurations.
var ErrConfig = errors.New("campaign: invalid configuration")

func (c Config) validate() error {
	if c.Runs < 1 {
		return fmt.Errorf("%w: Runs must be at least 1, got %d", ErrConfig, c.Runs)
	}
	if c.Parallel < 0 {
		return fmt.Errorf("%w: Parallel must be non-negative, got %d", ErrConfig, c.Parallel)
	}
	return nil
}

// Verdict classifies one scenario's outcome.
type Verdict string

const (
	// VerdictKeyRecovered: the attack recovered and verified the
	// victim's key.
	VerdictKeyRecovered Verdict = "key_recovered"
	// VerdictCleanFailure: the attack failed with a typed error.
	VerdictCleanFailure Verdict = "clean_failure"
	// VerdictInvariantViolation: the pipeline broke its contract —
	// panic, wrong key, unverified success, conformance mismatch or an
	// unbuildable scenario.
	VerdictInvariantViolation Verdict = "invariant_violation"
)

// Outcome tags (Result.Outcome) for machine-readable aggregation.
const (
	OutcomeVerified       = "verified"
	OutcomeCountermeasure = "countermeasure"
	OutcomeFailure        = "failure"
	OutcomePanic          = "panic"
	OutcomeWrongKey       = "wrong_key"
	OutcomeUnverified     = "unverified_success"
	OutcomeBuildFailure   = "build_failure"
	OutcomeConformance    = "conformance_mismatch"
	// OutcomeCancelled: the scenario's context was cancelled mid-attack.
	OutcomeCancelled = "cancelled"
	// Chaos outcomes are "chaos:<fault>".
)

// Result is one executed scenario.
type Result struct {
	Scenario Scenario `json:"scenario"`
	Verdict  Verdict  `json:"verdict"`
	// Outcome is the machine tag: "verified", "countermeasure",
	// "chaos:<fault>", "panic", "wrong_key", ...
	Outcome string `json:"outcome"`
	// Expected reports whether the verdict matches the scenario's
	// contract (ExpectRecovery).
	Expected bool   `json:"expected"`
	Error    string `json:"error,omitempty"`
	Panic    string `json:"panic,omitempty"`
	// Loads is the attack's modeled hardware reconfiguration count.
	Loads int `json:"loads"`
	// PortLoads counts configuration attempts observed at the chaos
	// port (chaos scenarios only).
	PortLoads int `json:"port_loads,omitempty"`
	// Conformance is "ok" when the golden-model stage passed, the
	// mismatch description when it did not.
	Conformance string `json:"conformance"`
}

// Aggregate is the campaign-level tally.
type Aggregate struct {
	KeyRecovered        int `json:"key_recovered"`
	CleanFailures       int `json:"clean_failures"`
	InvariantViolations int `json:"invariant_violations"`
	// Unexpected counts scenarios whose verdict contradicts their
	// contract (includes every invariant violation).
	Unexpected     int            `json:"unexpected"`
	ChaosScenarios int            `json:"chaos_scenarios"`
	TotalLoads     int            `json:"total_loads"`
	ByFault        map[string]int `json:"by_fault,omitempty"`
	ByOutcome      map[string]int `json:"by_outcome"`
}

// Report is the full campaign record. It contains no wall-clock data by
// design: identical (Seed, Runs, Chaos) inputs must marshal to
// byte-identical JSON whatever the worker-pool width.
type Report struct {
	Schema    int       `json:"schema"`
	Seed      int64     `json:"seed"`
	Runs      int       `json:"runs"`
	Chaos     bool      `json:"chaos"`
	Results   []Result  `json:"results"`
	Aggregate Aggregate `json:"aggregate"`
}

// Healthy reports whether the campaign met its contract: no invariant
// violations and no unexpected verdicts.
func (r *Report) Healthy() bool {
	return r.Aggregate.InvariantViolations == 0 && r.Aggregate.Unexpected == 0
}

// JSON marshals the report deterministically (indented, sorted map
// keys, trailing newline).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Run executes the campaign: generate the scenario list, execute it
// over a bounded worker pool, classify and aggregate. When ctx is
// cancelled, no new scenarios are dispatched, every in-flight attack
// stops at its next checkpoint, and the campaign returns an error
// wrapping core.ErrCancelled instead of a (partial, non-deterministic)
// report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	par := cfg.Parallel
	if par == 0 {
		par = runtime.NumCPU()
	}
	scns := GenerateScenarios(cfg)
	span := cfg.Tel.StartSpan("campaign.run",
		obs.KV("runs", cfg.Runs), obs.KV("parallel", par), obs.KV("chaos", cfg.Chaos))
	defer span.End()
	results := make([]Result, len(scns))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = RunScenario(ctx, scns[i], cfg.Tel)
			}
		}()
	}
dispatch:
	for i := range scns {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		span.SetAttr("cancelled", true)
		return nil, fmt.Errorf("campaign: %w: %v", core.ErrCancelled, cerr)
	}
	rep := &Report{
		Schema:  1,
		Seed:    cfg.Seed,
		Runs:    cfg.Runs,
		Chaos:   cfg.Chaos,
		Results: results,
	}
	rep.Aggregate = aggregate(results)
	publish(cfg.Tel, rep)
	span.SetAttr("key_recovered", rep.Aggregate.KeyRecovered)
	span.SetAttr("clean_failures", rep.Aggregate.CleanFailures)
	span.SetAttr("invariant_violations", rep.Aggregate.InvariantViolations)
	span.SetAttr("unexpected", rep.Aggregate.Unexpected)
	return rep, nil
}

// aggregate tallies the results sequentially — the only place counts
// are accumulated, so the report stays independent of execution order.
func aggregate(results []Result) Aggregate {
	a := Aggregate{ByOutcome: map[string]int{}}
	for _, r := range results {
		switch r.Verdict {
		case VerdictKeyRecovered:
			a.KeyRecovered++
		case VerdictCleanFailure:
			a.CleanFailures++
		default:
			a.InvariantViolations++
		}
		if !r.Expected {
			a.Unexpected++
		}
		if r.Scenario.Fault != chaos.None {
			a.ChaosScenarios++
			if a.ByFault == nil {
				a.ByFault = map[string]int{}
			}
			a.ByFault[string(r.Scenario.Fault)]++
		}
		a.TotalLoads += r.Loads
		a.ByOutcome[r.Outcome]++
	}
	return a
}

// publish mirrors the aggregate into the telemetry registry.
func publish(tel *obs.Telemetry, rep *Report) {
	if tel == nil || tel.Metrics == nil {
		return
	}
	tel.Counter("campaign.scenarios").Set(int64(len(rep.Results)))
	tel.Counter("campaign.key_recovered").Set(int64(rep.Aggregate.KeyRecovered))
	tel.Counter("campaign.clean_failures").Set(int64(rep.Aggregate.CleanFailures))
	tel.Counter("campaign.invariant_violations").Set(int64(rep.Aggregate.InvariantViolations))
	tel.Counter("campaign.unexpected").Set(int64(rep.Aggregate.Unexpected))
	tel.Counter("campaign.chaos_scenarios").Set(int64(rep.Aggregate.ChaosScenarios))
	tel.Counter("campaign.total_loads").Set(int64(rep.Aggregate.TotalLoads))
	for _, r := range rep.Results {
		tel.Histogram("campaign.loads").Observe(float64(r.Loads))
	}
}
