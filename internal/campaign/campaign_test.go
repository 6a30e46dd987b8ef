package campaign

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"snowbma/internal/campaign/chaos"
	"snowbma/internal/obs"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero runs", Config{Runs: 0}},
		{"negative runs", Config{Runs: -3}},
		{"negative parallel", Config{Runs: 1, Parallel: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.cfg); !errors.Is(err, ErrConfig) {
				t.Fatalf("Run(%+v) = %v, want ErrConfig", tc.cfg, err)
			}
		})
	}
}

func TestGenerateScenariosDeterministic(t *testing.T) {
	cfg := Config{Runs: 64, Seed: 42, Chaos: true}
	a := GenerateScenarios(cfg)
	b := GenerateScenarios(cfg)
	if len(a) != 64 {
		t.Fatalf("generated %d scenarios, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scenario %d differs between identical generations:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := GenerateScenarios(Config{Runs: 64, Seed: 43, Chaos: true})
	same := 0
	for i := range a {
		if a[i].Key == c[i].Key {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different master seeds generated identical key sequences")
	}
}

func TestGenerateScenariosCoverage(t *testing.T) {
	scns := GenerateScenarios(Config{Runs: 200, Seed: 7, Chaos: true})
	faults := map[chaos.Fault]int{}
	var counter, encrypted, census, recompute, pad int
	for _, s := range scns {
		faults[s.Fault]++
		if s.Countermeasure != CounterNone {
			counter++
		}
		if s.Encrypted {
			encrypted++
		}
		if s.Census {
			census++
		}
		if s.RecomputeCRC {
			recompute++
		}
		if s.PadFrames > 0 {
			pad++
		}
		// The contract must be consistent with the dimensions.
		want := s.Countermeasure == CounterNone && s.Fault == chaos.None
		if s.ExpectRecovery != want {
			t.Fatalf("scenario %d: ExpectRecovery=%v inconsistent with cm=%q fault=%q",
				s.Index, s.ExpectRecovery, s.Countermeasure, s.Fault)
		}
		if s.Encrypted && s.RecomputeCRC {
			t.Fatalf("scenario %d: RecomputeCRC on an encrypted image", s.Index)
		}
	}
	for _, f := range chaos.Faults() {
		if faults[f] == 0 {
			t.Errorf("fault %q never generated in 200 scenarios", f)
		}
	}
	if counter == 0 || encrypted == 0 || census == 0 || recompute == 0 || pad == 0 {
		t.Errorf("dimension never generated: countermeasure=%d encrypted=%d census=%d recomputeCRC=%d pad=%d",
			counter, encrypted, census, recompute, pad)
	}
}

// TestCampaignDeterministicAcrossParallelism is half the acceptance
// criterion: the same seed must produce a byte-identical JSON report
// whatever the worker-pool width.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{Runs: 12, Seed: 5, Chaos: true}
	cfg.Parallel = 1
	seq, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	par, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSON reports differ between -parallel 1 and 4:\n--- parallel 1 ---\n%s\n--- parallel 4 ---\n%s", a, b)
	}
}

// TestCampaignAcceptance is the 100-scenario acceptance criterion: the
// campaign recovers the key in every clean unprotected scenario, every
// chaos scenario ends in a typed error, and there are zero panics,
// wrong keys, conformance mismatches or unexpected verdicts.
func TestCampaignAcceptance(t *testing.T) {
	tel := obs.New()
	rep, err := Run(context.Background(), Config{Runs: 100, Parallel: 4, Seed: 1, Chaos: true, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 100 {
		t.Fatalf("got %d results, want 100", len(rep.Results))
	}
	for _, r := range rep.Results {
		s := r.Scenario
		if r.Panic != "" {
			t.Errorf("scenario %d panicked: %s", s.Index, r.Panic)
		}
		if r.Conformance != "ok" {
			t.Errorf("scenario %d failed golden-model conformance: %s", s.Index, r.Conformance)
		}
		if r.Verdict == VerdictInvariantViolation {
			t.Errorf("scenario %d: invariant violation (%s): %s", s.Index, r.Outcome, r.Error)
		}
		if !r.Expected {
			t.Errorf("scenario %d: verdict %s contradicts the contract (fault=%q cm=%q)",
				s.Index, r.Verdict, s.Fault, s.Countermeasure)
		}
		switch {
		case s.Fault != chaos.None:
			if r.Verdict != VerdictCleanFailure || r.Error == "" {
				t.Errorf("chaos scenario %d (%s): verdict=%s error=%q, want a typed clean failure",
					s.Index, s.Fault, r.Verdict, r.Error)
			}
			if r.Outcome != "chaos:"+string(s.Fault) {
				t.Errorf("chaos scenario %d: outcome %q, want chaos:%s", s.Index, r.Outcome, s.Fault)
			}
			// Load-path faults must have seen traffic; readback faults
			// (truncate) can kill the attack before its first load.
			if (s.Fault == chaos.BitFlip || s.Fault == chaos.Stall) && r.PortLoads < 1 {
				t.Errorf("chaos scenario %d: no loads reached the injected port", s.Index)
			}
		case s.Countermeasure != CounterNone:
			if r.Verdict != VerdictCleanFailure || r.Outcome != OutcomeCountermeasure {
				t.Errorf("protected scenario %d: verdict=%s outcome=%s, want countermeasure clean failure",
					s.Index, r.Verdict, r.Outcome)
			}
		default:
			if r.Verdict != VerdictKeyRecovered || r.Loads < 1 {
				t.Errorf("clean scenario %d: verdict=%s loads=%d, want a verified key recovery",
					s.Index, r.Verdict, r.Loads)
			}
		}
	}
	if !rep.Healthy() {
		t.Errorf("campaign unhealthy: %+v", rep.Aggregate)
	}
	agg := rep.Aggregate
	if agg.KeyRecovered+agg.CleanFailures+agg.InvariantViolations != 100 {
		t.Errorf("aggregate counts don't partition the scenarios: %+v", agg)
	}
	if agg.ChaosScenarios == 0 {
		t.Error("chaos campaign generated zero chaos scenarios")
	}
	total := 0
	for _, f := range chaos.Faults() {
		total += agg.ByFault[string(f)]
	}
	if total != agg.ChaosScenarios {
		t.Errorf("ByFault sums to %d, ChaosScenarios=%d", total, agg.ChaosScenarios)
	}
	if got := tel.Counter("campaign.scenarios").Value(); got != 100 {
		t.Errorf("campaign.scenarios counter = %d, want 100", got)
	}
	if got := tel.Counter("campaign.invariant_violations").Value(); got != 0 {
		t.Errorf("campaign.invariant_violations counter = %d, want 0", got)
	}
}

// TestRunScenarioPerFault pins one end-to-end scenario per chaos fault:
// each must surface as a named clean failure, never a wrong key.
func TestRunScenarioPerFault(t *testing.T) {
	scns := GenerateScenarios(Config{Runs: 60, Seed: 99, Chaos: true})
	picked := map[chaos.Fault]Scenario{}
	for _, s := range scns {
		if s.Fault != chaos.None && s.Countermeasure == CounterNone {
			if _, ok := picked[s.Fault]; !ok {
				picked[s.Fault] = s
			}
		}
	}
	for _, f := range chaos.Faults() {
		s, ok := picked[f]
		if !ok {
			t.Fatalf("no unprotected scenario with fault %q in 60 draws", f)
		}
		t.Run(string(f), func(t *testing.T) {
			r := RunScenario(context.Background(), s, nil)
			if r.Verdict != VerdictCleanFailure {
				t.Fatalf("verdict=%s outcome=%s error=%q, want clean_failure", r.Verdict, r.Outcome, r.Error)
			}
			if r.Error == "" {
				t.Fatal("clean failure carries no error text")
			}
			if !r.Expected {
				t.Fatal("chaos failure not marked as the expected verdict")
			}
		})
	}
}

func TestReportJSONShape(t *testing.T) {
	rep, err := Run(context.Background(), Config{Runs: 1, Parallel: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Error("JSON report missing trailing newline")
	}
	if !bytes.Contains(data, []byte(`"schema": 1`)) {
		t.Errorf("JSON report missing schema marker:\n%s", data)
	}
	if bytes.Contains(data, []byte("parallel")) || bytes.Contains(data, []byte("duration")) {
		t.Error("JSON report leaks execution-dependent fields (parallel/duration)")
	}
}
