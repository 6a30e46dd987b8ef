package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"snowbma"
	"snowbma/internal/report"
)

var (
	// ErrSeedFlag is the named validation error for a negative -seed:
	// scenario generation treats the seed as a reproducibility handle,
	// and a negative one is invariably a mistyped flag rather than an
	// intentional campaign identity.
	ErrSeedFlag = errors.New("invalid -seed value")
	// ErrChaosFlag is the named validation error for -chaos without an
	// explicit -runs: chaos campaigns assert statistical properties, so
	// the caller must say how many scenarios back the assertion.
	ErrChaosFlag = errors.New("-chaos requires an explicit -runs")
	// ErrRunsFlag is the named validation error for a non-positive -runs.
	ErrRunsFlag = errors.New("invalid -runs value")
)

// flagSet reports whether the named flag was passed explicitly.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

// validateSeed rejects negative -seed values with the named error.
func validateSeed(cmd string, seed int64) error {
	if seed < 0 {
		return fmt.Errorf("%s: %w: must be non-negative, got %d", cmd, ErrSeedFlag, seed)
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	runs := fs.Int("runs", 100, "number of randomized scenarios to execute")
	parallel := fs.Int("parallel", 0, "worker-pool width (0 = all CPUs)")
	seed := fs.Int64("seed", 1, "master seed; identical seeds reproduce the report byte for byte")
	chaos := fs.Bool("chaos", false, "mix seeded fault-injection scenarios into the campaign")
	jsonOut := fs.String("json", "", "write the campaign report as JSON to this file")
	_ = fs.Parse(args)
	if *chaos && !flagSet(fs, "runs") {
		return fmt.Errorf("campaign: %w (say how many scenarios back the chaos assertion)", ErrChaosFlag)
	}
	if *runs < 1 {
		return fmt.Errorf("campaign: %w: must be at least 1, got %d", ErrRunsFlag, *runs)
	}
	if err := validateSeed("campaign", *seed); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("campaign: -parallel must be non-negative, got %d (0 means all CPUs)", *parallel)
	}
	tel := snowbma.NewTelemetry()
	rep, err := snowbma.RunCampaign(context.Background(), snowbma.CampaignConfig{
		Runs: *runs, Parallel: *parallel, Seed: *seed, Chaos: *chaos, Tel: tel,
	})
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("campaign: encoding report: %w", err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fmt.Errorf("campaign: writing report: %w", err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *jsonOut, len(data))
	}
	fmt.Print(report.Campaign(rep))
	if !rep.Healthy() {
		return fmt.Errorf("campaign: %d invariant violations, %d unexpected verdicts",
			rep.Aggregate.InvariantViolations, rep.Aggregate.Unexpected)
	}
	return nil
}
