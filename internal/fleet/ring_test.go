package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"snowbma/internal/service"
	"snowbma/internal/victim"
)

// TestRingJoinMovesOnlyToJoiner is the consistent-hashing contract that
// keeps victim caches hot: when a worker joins, every key either keeps
// its old owner or moves to the joiner — never to a third worker. And
// the join must take some keys (otherwise the ring isn't balancing).
func TestRingJoinMovesOnlyToJoiner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		r := NewRing()
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("w%d", i))
		}
		keys := make([]string, 500)
		for i := range keys {
			keys[i] = fmt.Sprintf("shard-%d-%d", trial, rng.Int63())
		}
		before := map[string]string{}
		for _, k := range keys {
			before[k] = r.GetLive(k, nil)
		}
		joiner := fmt.Sprintf("w%d", n)
		r.Add(joiner)
		moved := 0
		for _, k := range keys {
			after := r.GetLive(k, nil)
			if after != before[k] {
				if after != joiner {
					t.Fatalf("trial %d: key %s moved %s → %s on join of %s (must only move to the joiner)",
						trial, k, before[k], after, joiner)
				}
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("trial %d: joiner %s took no keys out of %d", trial, joiner, len(keys))
		}
		// Movement should be near the fair share 1/(n+1); allow 3x.
		if fair := len(keys) / (n + 1); moved > 3*fair {
			t.Fatalf("trial %d: join moved %d of %d keys, fair share %d (unbounded movement)",
				trial, moved, len(keys), fair)
		}
	}
}

// TestRingLeaveRestoresMapping: removing a member reassigns only its
// keys, and a rejoin restores the exact prior mapping — a bouncing
// worker reclaims precisely the shards (and warm caches) it had.
func TestRingLeaveRestoresMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := NewRing()
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("shard-%d", rng.Int63())
	}
	before := map[string]string{}
	for _, k := range keys {
		before[k] = r.GetLive(k, nil)
	}
	r.Remove("w2")
	for _, k := range keys {
		after := r.GetLive(k, nil)
		if before[k] != "w2" && after != before[k] {
			t.Fatalf("key %s moved %s → %s though its owner never left", k, before[k], after)
		}
		if after == "w2" {
			t.Fatalf("key %s still maps to removed worker", k)
		}
	}
	r.Add("w2")
	for _, k := range keys {
		if got := r.GetLive(k, nil); got != before[k] {
			t.Fatalf("after rejoin key %s maps to %s, want original %s", k, got, before[k])
		}
	}
}

// TestRingGetLiveWalksOverDead: a dead owner's keys divert to the next
// live member; everyone else's keys stay put.
func TestRingGetLiveDiversion(t *testing.T) {
	r := NewRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	live := func(dead string) func(string) bool {
		return func(m string) bool { return m != dead }
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("shard-%d", i)
		owner := r.GetLive(k, nil)
		diverted := r.GetLive(k, live(owner))
		if diverted == owner {
			t.Fatalf("key %s still served by dead owner %s", k, owner)
		}
		if other := r.GetLive(k, live("not-a-member")); other != owner {
			t.Fatalf("key %s moved %s → %s though its owner is live", k, owner, other)
		}
	}
	if r.GetLive("anything", func(string) bool { return false }) != "" {
		t.Fatal("all-dead ring must return no owner")
	}
}

// TestIdenticalVictimsSameShard: two JobSpecs that synthesize the same
// victim must produce the same shard key (and thus the same live
// worker), including across the zero-seed/DefaultSeed normalization.
func TestIdenticalVictimsSameShard(t *testing.T) {
	a := service.JobSpec{Kind: service.KindAttack, Victim: service.VictimSpec{Seed: 0}}
	b := service.JobSpec{Kind: service.KindCensus, Victim: service.VictimSpec{Seed: victim.DefaultSeed}}
	if shardKey(a) != shardKey(b) {
		t.Fatalf("identical victims shard differently:\n %s\n %s", shardKey(a), shardKey(b))
	}
	c := service.JobSpec{Kind: service.KindAttack, Victim: service.VictimSpec{Seed: 7}}
	if shardKey(a) == shardKey(c) {
		t.Fatal("different victims share a shard key")
	}
	r := NewRing()
	r.Add("w0")
	r.Add("w1")
	r.Add("w2")
	if r.GetLive(shardKey(a), nil) != r.GetLive(shardKey(b), nil) {
		t.Fatal("identical victims landed on different workers")
	}
}
