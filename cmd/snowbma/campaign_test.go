package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCmdCampaignFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want error
	}{
		{"negative seed", []string{"-runs", "1", "-seed", "-1"}, ErrSeedFlag},
		{"very negative seed", []string{"-runs", "1", "-seed", "-999999"}, ErrSeedFlag},
		{"chaos without runs", []string{"-chaos"}, ErrChaosFlag},
		{"chaos with only seed", []string{"-chaos", "-seed", "3"}, ErrChaosFlag},
		{"zero runs", []string{"-runs", "0"}, ErrRunsFlag},
		{"negative runs", []string{"-runs", "-5"}, ErrRunsFlag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdCampaign(tc.args)
			if !errors.Is(err, tc.want) {
				t.Fatalf("cmdCampaign(%v) = %v, want %v", tc.args, err, tc.want)
			}
		})
	}
	// Precedence: chaos-without-runs fires before the runs bound, so the
	// caller is told about the missing contract first.
	if err := cmdCampaign([]string{"-chaos", "-seed", "-1"}); !errors.Is(err, ErrChaosFlag) {
		t.Fatalf("chaos+bad seed = %v, want ErrChaosFlag first", err)
	}
	// -chaos with an explicit -runs is the supported spelling; the runs
	// value itself must still validate.
	if err := cmdCampaign([]string{"-chaos", "-runs", "0"}); !errors.Is(err, ErrRunsFlag) {
		t.Fatalf("chaos with zero runs = %v, want ErrRunsFlag", err)
	}
	if err := cmdCampaign([]string{"-runs", "1", "-parallel", "-2"}); err == nil {
		t.Fatal("negative -parallel accepted")
	}
}

func TestCmdSynthSeedValidation(t *testing.T) {
	if err := cmdSynth([]string{"-seed", "-1", "-o", os.DevNull}); !errors.Is(err, ErrSeedFlag) {
		t.Fatalf("synth -seed -1 = %v, want ErrSeedFlag", err)
	}
}

func TestCmdCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign CLI test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "campaign.json")
	if err := cmdCampaign([]string{"-runs", "3", "-seed", "8", "-parallel", "1", "-json", out}); err != nil {
		t.Fatalf("campaign run failed: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("campaign JSON not written: %v", err)
	}
	var rep struct {
		Schema  int `json:"schema"`
		Runs    int `json:"runs"`
		Results []struct {
			Verdict string `json:"verdict"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("campaign JSON does not parse: %v", err)
	}
	if rep.Schema != 1 || rep.Runs != 3 || len(rep.Results) != 3 {
		t.Fatalf("campaign JSON shape wrong: schema=%d runs=%d results=%d",
			rep.Schema, rep.Runs, len(rep.Results))
	}
}
