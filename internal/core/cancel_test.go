package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"snowbma/internal/snow3g"
)

func TestRunCancelledBeforeStart(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atk.SetContext(ctx)
	rep, err := atk.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run with cancelled ctx = %v, want ErrCancelled", err)
	}
	if rep.Verified || rep.Key != (snow3g.Key{}) {
		t.Fatalf("cancelled run leaked a key: verified=%v key=%08x", rep.Verified, rep.Key)
	}
	if rep.Loads != 0 {
		t.Fatalf("cancelled-before-start run counted %d loads, want 0", rep.Loads)
	}
}

// cancellingVictim cancels a context after a fixed number of Load calls,
// so cancellation lands deterministically mid-sweep.
type cancellingVictim struct {
	Victim
	cancel    context.CancelFunc
	after     int64
	loads     atomic.Int64
	postLoads atomic.Int64 // loads observed after the cancellation fired
}

func (c *cancellingVictim) Load(img []byte) error {
	n := c.loads.Add(1)
	if n == c.after {
		c.cancel()
	}
	if n > c.after {
		c.postLoads.Add(1)
	}
	return c.Victim.Load(img)
}

func TestRunCancelledMidSweepStopsWithinOneChunk(t *testing.T) {
	for _, lanes := range []int{1, DefaultLanes} {
		dev := buildVictim(t, false, false)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Fire the cancellation on the 3rd configuration-port load: inside
		// the z-path verification sweep for every lane width.
		cv := &cancellingVictim{Victim: dev, cancel: cancel, after: 3}
		atk, err := NewAttack(cv, attackIV, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := atk.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		atk.SetContext(ctx)
		rep, err := atk.Run()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("lanes=%d: Run = %v, want ErrCancelled", lanes, err)
		}
		if rep.Verified || rep.Key != (snow3g.Key{}) {
			t.Fatalf("lanes=%d: cancelled run leaked a key", lanes)
		}
		// The next checkpoint stops the run within the in-flight chunk:
		// after the cancellation fires, the only port activity allowed is
		// the remainder of that chunk (scalar path: none at all) plus the
		// epilogue's restore load.
		budget := int64(1) // epilogue restore
		if lanes > 1 {
			budget += int64(lanes)
		}
		if got := cv.postLoads.Load(); got > budget {
			t.Fatalf("lanes=%d: %d loads after cancellation, budget %d (one chunk + restore)",
				lanes, got, budget)
		}
	}
}

func TestRunCensusGuidedCancelled(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atk.SetContext(ctx)
	rep, err := atk.RunCensusGuided()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunCensusGuided with cancelled ctx = %v, want ErrCancelled", err)
	}
	if rep.Verified || rep.Key != (snow3g.Key{}) {
		t.Fatal("cancelled census run leaked a key")
	}
}

func TestSetContextNilRestoresBackground(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atk.SetContext(ctx)
	atk.SetContext(nil)
	rep, err := atk.Run()
	if err != nil {
		t.Fatalf("Run after SetContext(nil) = %v, want success", err)
	}
	if !rep.Verified || rep.Key != secretKey {
		t.Fatal("attack with background context failed to recover the key")
	}
}
