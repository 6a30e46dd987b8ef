package main

import (
	"slices"
	"testing"

	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/service"
	"snowbma/internal/victim"
)

// TestFindOracleMatchesReference pins the benchmark's findlut oracle to
// the paper's Algorithm 1 as transliterated in core, on a victim image.
func TestFindOracleMatchesReference(t *testing.T) {
	v, err := victim.Build(victim.Config{Key: hotSet(1, 1)[0].Key})
	if err != nil {
		t.Fatal(err)
	}
	f := boolfn.MustParse(targetExpr)
	got, want := findOracle(v.Image, f), core.FindLUTReference(v.Image, f, core.SevenSeries())
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("oracle found %d matches %v, Algorithm 1 %d %v", len(got), got, len(want), want)
	}
}

// TestWrongAnswersAreCaught feeds the job check a right answer and
// answers that are wrong in one field each.
func TestWrongAnswersAreCaught(t *testing.T) {
	cfg := config{Workload: "warm_service", Seed: 9, Sizes: sizes{Hot: 2}}
	mix, err := newJobMix(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := mix.hot[1]
	right := service.AttackResult{Verified: true, Key: h.Key, IV: h.IV, Loads: wantLoads}
	attack := func(edit func(*service.AttackResult)) any {
		r := right
		edit(&r)
		return &r
	}
	find := func(m []int) any { return &service.FindResult{Matches: m} }
	cases := []struct {
		name  string
		res   any
		wrong bool
	}{
		{"right attack", attack(func(*service.AttackResult) {}), false},
		{"right findlut", find(mix.want[1]), false},
		{"unverified", attack(func(r *service.AttackResult) { r.Verified = false }), true},
		{"other key", attack(func(r *service.AttackResult) { r.Key[2] ^= 1 }), true},
		{"other iv", attack(func(r *service.AttackResult) { r.IV[0] ^= 1 }), true},
		{"extra load", attack(func(r *service.AttackResult) { r.Loads++ }), true},
		{"missed match", find(mix.want[1][1:]), true},
		{"no result", nil, true},
	}
	for _, c := range cases {
		s := newSession(cfg)
		mix.check(s, "test", 1, c.res)
		if got := len(s.res.Wrong) > 0; got != c.wrong {
			t.Errorf("%s: wrong answer reported %v, want %v (%v)", c.name, got, c.wrong, s.res.Wrong)
		}
	}
}
