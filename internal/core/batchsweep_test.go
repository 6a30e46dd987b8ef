package core

import (
	"errors"
	"testing"

	"snowbma/internal/device"
)

// TestValidateLanes pins the width check SetLanes makes: 1..device.MaxLanes
// is accepted and anything else is refused with ErrLanes.
func TestValidateLanes(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	for _, bad := range []int{-1, 0, device.MaxLanes + 1, 128, 256, 1000} {
		if err := atk.SetLanes(bad); !errors.Is(err, ErrLanes) {
			t.Fatalf("SetLanes(%d) = %v, want ErrLanes", bad, err)
		}
	}
	for _, good := range []int{1, 2, DefaultLanes, device.MaxLanes} {
		if err := atk.SetLanes(good); err != nil {
			t.Fatalf("SetLanes(%d) = %v, want nil", good, err)
		}
	}
}

func TestSetLanesValidation(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	if w := atk.Report().Batch.Width; w != DefaultLanes {
		t.Fatalf("new attack sweeps %d lanes wide, want DefaultLanes %d", w, DefaultLanes)
	}
	for _, bad := range []int{-1, 0, device.MaxLanes + 1} {
		if err := atk.SetLanes(bad); err == nil {
			t.Fatalf("SetLanes(%d) accepted", bad)
		}
		if w := atk.Report().Batch.Width; w != DefaultLanes {
			t.Fatalf("Width = %d after refused SetLanes(%d), want %d", w, bad, DefaultLanes)
		}
	}
	for _, good := range []int{1, 2, 33, 63, device.MaxLanes} {
		if err := atk.SetLanes(good); err != nil {
			t.Fatalf("SetLanes(%d): %v", good, err)
		}
		if atk.Report().Batch.Width != good {
			t.Fatalf("Width = %d after SetLanes(%d)", atk.Report().Batch.Width, good)
		}
	}
}
