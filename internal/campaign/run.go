package campaign

import (
	"context"
	"errors"
	"fmt"

	"snowbma/internal/bitstream"
	"snowbma/internal/campaign/chaos"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
	"snowbma/internal/victim"
)

// conformanceWords is how many keystream words the golden-model stage
// compares across the three implementations.
const conformanceWords = 8

// victimConfig translates a scenario's synthesis fields into the shared
// victim-build Config (the same pipeline the facade and the service job
// engine use).
func victimConfig(s Scenario) victim.Config {
	cfg := victim.Config{
		Key:       s.Key,
		Protected: s.Countermeasure == CounterPaper,
		PadFrames: s.PadFrames,
		Seed:      s.DesignSeed,
	}
	if s.Countermeasure == CounterAuto {
		cfg.AutoProtectBits = s.AutoProtectBits
	}
	if s.Encrypted {
		k := victim.DeriveKeys(s.Seed)
		cfg.Encrypt = &k
	}
	return cfg
}

// buildVictim synthesizes the scenario's design and programs a simulated
// FPGA with it, through the shared internal/victim pipeline.
func buildVictim(s Scenario) (*device.FPGA, error) {
	v, err := victim.Build(victimConfig(s))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return v.Device, nil
}

// conformance cross-checks three implementations of the scenario's
// cipher instance over the first conformanceWords keystream words: the
// snow3g software reference, the gate-level device simulation driven by
// the hdl control protocol, and every lane of a full-width bitsliced
// device.Batch. It returns "ok" or a description of
// the first mismatch. The stage runs on the bare device, before any
// chaos wrapping — it checks the models against each other, not the
// fault injectors.
func conformance(fpga *device.FPGA, s Scenario) string {
	c := snow3g.New(snow3g.Fault{})
	c.Init(s.Key, s.IV)
	ref := c.KeystreamWords(conformanceWords)
	got := hdl.GenerateKeystream(fpga, s.IV, conformanceWords)
	for t := range ref {
		if got[t] != ref[t] {
			return fmt.Sprintf("hdl keystream word %d: got %08x, reference %08x", t, got[t], ref[t])
		}
	}
	batch, err := fpga.BatchOf(make([]bitstream.PatchSet, device.MaxLanes))
	if err != nil {
		return fmt.Sprintf("batch build: %v", err)
	}
	lanes := hdl.GenerateKeystreamBatch(batch, s.IV, conformanceWords)
	for L := range lanes {
		for t := range ref {
			if lanes[L][t] != ref[t] {
				return fmt.Sprintf("batch lane %d word %d: got %08x, reference %08x", L, t, lanes[L][t], ref[t])
			}
		}
	}
	return "ok"
}

// runAttack executes the scenario's configured attack flavor against
// the (possibly chaos-wrapped) victim.
func runAttack(ctx context.Context, v core.Victim, s Scenario, tel *obs.Telemetry) (*core.Report, error) {
	atk, err := core.NewAttackCRCMode(v, s.IV, nil, s.RecomputeCRC)
	if err != nil {
		return nil, err
	}
	atk.SetTelemetry(tel)
	atk.SetContext(ctx)
	if s.Census {
		return atk.RunCensusGuided()
	}
	return atk.Run()
}

// RunScenario builds the scenario's victim, runs the golden-model
// conformance stage, executes the attack (through the chaos injector
// when the scenario carries a fault) and classifies the outcome. The
// context cancels the attack between phases and sweep chunks; a
// cancelled scenario classifies as a clean failure with the "cancelled"
// outcome, never as an invariant violation.
// It never panics: a panic anywhere in the pipeline is caught and
// recorded as an invariant violation.
func RunScenario(ctx context.Context, s Scenario, tel *obs.Telemetry) (res Result) {
	res.Scenario = s
	res.Conformance = "ok"
	span := tel.StartSpan("campaign.scenario",
		obs.KV("index", s.Index), obs.KV("fault", string(s.Fault)))
	defer span.End()
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = VerdictInvariantViolation
			res.Outcome = OutcomePanic
			res.Panic = fmt.Sprint(r)
			res.Expected = false
		}
		span.SetAttr("verdict", string(res.Verdict))
		span.SetAttr("outcome", res.Outcome)
		tel.Counter("campaign.verdict." + string(res.Verdict)).Inc()
	}()
	fpga, err := buildVictim(s)
	if err != nil {
		// Every scenario the generator emits must synthesize; a build
		// failure is a harness bug, not an attack outcome.
		res.Verdict = VerdictInvariantViolation
		res.Outcome = OutcomeBuildFailure
		res.Error = err.Error()
		return res
	}
	if msg := conformance(fpga, s); msg != "ok" {
		res.Verdict = VerdictInvariantViolation
		res.Outcome = OutcomeConformance
		res.Conformance = msg
		return res
	}
	var target core.Victim = fpga
	var injector *chaos.Device
	if s.Fault != chaos.None {
		injector, err = chaos.Wrap(fpga, s.Fault, s.Seed)
		if err != nil {
			res.Verdict = VerdictInvariantViolation
			res.Outcome = OutcomeBuildFailure
			res.Error = err.Error()
			return res
		}
		target = injector
	}
	rep, err := runAttack(ctx, target, s, tel)
	if injector != nil {
		res.PortLoads = injector.Loads()
	}
	if rep != nil {
		res.Loads = rep.Loads
	}
	if err != nil {
		res.Verdict = VerdictCleanFailure
		res.Error = err.Error()
		if errors.Is(err, core.ErrCancelled) {
			// Cancellation is imposed on the scenario from outside; it
			// says nothing about the attack-vs-victim contract.
			res.Outcome = OutcomeCancelled
			res.Expected = true
			return res
		}
		switch {
		case s.Fault != chaos.None:
			res.Outcome = "chaos:" + string(s.Fault)
		case s.Countermeasure != CounterNone:
			res.Outcome = OutcomeCountermeasure
		default:
			res.Outcome = OutcomeFailure
		}
		res.Expected = !s.ExpectRecovery
		return res
	}
	switch {
	case !rep.Verified:
		res.Verdict = VerdictInvariantViolation
		res.Outcome = OutcomeUnverified
	case rep.Key != s.Key || rep.IV != s.IV:
		res.Verdict = VerdictInvariantViolation
		res.Outcome = OutcomeWrongKey
		res.Error = fmt.Sprintf("recovered key %08x iv %08x, victim key %08x iv %08x",
			rep.Key, rep.IV, s.Key, s.IV)
	default:
		res.Verdict = VerdictKeyRecovered
		res.Outcome = OutcomeVerified
		res.Expected = s.ExpectRecovery
	}
	return res
}
