package snowbma

import (
	"context"
	"reflect"
	"testing"
)

func TestBuildVictimDeterministicPerSeed(t *testing.T) {
	a, err := BuildVictim(VictimConfig{Key: PaperKey, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildVictim(VictimConfig{Key: PaperKey, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Image) != len(b.Image) {
		t.Fatal("same seed produced different image sizes")
	}
	for i := range a.Image {
		if a.Image[i] != b.Image[i] {
			t.Fatalf("same seed produced different images at byte %d", i)
		}
	}
	c, err := BuildVictim(VictimConfig{Key: PaperKey, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Image) == len(c.Image)
	if same {
		diff := false
		for i := range a.Image {
			if a.Image[i] != c.Image[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestBuildVictimPadFrames(t *testing.T) {
	small, err := BuildVictim(VictimConfig{Key: PaperKey})
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildVictim(VictimConfig{Key: PaperKey, PadFrames: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Image) <= len(small.Image) {
		t.Fatal("PadFrames did not grow the image")
	}
	// Both must still behave identically.
	zs := small.Keystream(PaperIV, 2)
	zb := big.Keystream(PaperIV, 2)
	if zs[0] != zb[0] || zs[1] != zb[1] {
		t.Fatal("padding changed behaviour")
	}
}

// TestFindLUTsExpressions drives FindLUTs with each expression form it
// accepts (paper notation, a raw INIT literal) and one it must reject,
// at the default worker count and at an explicit WithParallel: the
// worker count changes neither the matches nor the scan counters.
func TestFindLUTsExpressions(t *testing.T) {
	v, err := BuildVictim(VictimConfig{Key: PaperKey})
	if err != nil {
		t.Fatal(err)
	}
	flash := v.Device.ReadFlash()
	ctx := context.Background()
	for _, tc := range []struct {
		expr    string
		minHits int
		wantErr bool
	}{
		{"(a1^a2^a3)a4a5!a6", 32, false},
		{"64'hFFF7F7FF00080800", 0, false},
		{"a7 + nonsense", 0, true},
	} {
		hits, st, err := FindLUTs(ctx, flash, tc.expr)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%q: bad expression accepted", tc.expr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if len(hits) < tc.minHits {
			t.Fatalf("%q: %d hits, want ≥ %d", tc.expr, len(hits), tc.minHits)
		}
		parHits, parSt, err := FindLUTs(ctx, flash, tc.expr, WithParallel(2))
		if err != nil {
			t.Fatalf("%q WithParallel(2): %v", tc.expr, err)
		}
		if !reflect.DeepEqual(hits, parHits) {
			t.Fatalf("%q: WithParallel(2) matches %v, default %v", tc.expr, parHits, hits)
		}
		// Timings, the pool size and the process-wide catalogue cache
		// counters (the first pass warmed the cache) are not results.
		for _, s := range []*ScanStats{&st, &parSt} {
			s.CompileTime, s.ScanTime, s.Workers = 0, 0, 0
			s.CatalogueHits, s.CatalogueMisses = 0, 0
		}
		if !reflect.DeepEqual(st, parSt) {
			t.Fatalf("%q: WithParallel(2) stats diverge:\ndefault: %+v\nparallel: %+v", tc.expr, st, parSt)
		}
	}
}

func TestVictimMetadataPopulated(t *testing.T) {
	v, err := BuildVictim(VictimConfig{Key: PaperKey})
	if err != nil {
		t.Fatal(err)
	}
	if v.LUTs < 500 || v.Depth < 2 || v.CriticalPathNs <= 0 || v.CriticalEndpoint == "" {
		t.Fatalf("victim metadata incomplete: %+v", v)
	}
}

func TestEncryptedVictimFlashUnreadable(t *testing.T) {
	enc := &EncryptionKeys{}
	enc.KE[0], enc.KA[0] = 1, 2
	v, err := BuildVictim(VictimConfig{Key: PaperKey, Encrypt: enc})
	if err != nil {
		t.Fatal(err)
	}
	// The flash image must not expose the plain packets: FindLUTs over
	// ciphertext finds none of the 32 f2 LUTs (probabilistically; a
	// single accidental hit would still fail the 32 threshold).
	hits, _, err := FindLUTs(context.Background(), v.Device.ReadFlash(), "(a1^a2^a3)a4a5!a6")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) >= 32 {
		t.Fatalf("ciphertext leaked %d f2-pattern hits", len(hits))
	}
}

func TestRecoverKeyRejectsGarbage(t *testing.T) {
	z := make([]uint32, 16)
	for i := range z {
		z[i] = 0xFFFFFFFF
	}
	if _, _, err := RecoverKey(z); err == nil {
		t.Fatal("garbage keystream accepted")
	}
}

func TestUIA2MACConsistency(t *testing.T) {
	ik := CipherKeyToBytes(PaperKey)
	msg := []byte("integrity protected payload")
	a := UIA2MAC(ik, 1, 2, 0, msg)
	b := UIA2MAC(ik, 1, 2, 0, msg)
	if a != b {
		t.Fatal("UIA2 MAC not deterministic")
	}
	msg[0] ^= 1
	if UIA2MAC(ik, 1, 2, 0, msg) == a {
		t.Fatal("UIA2 MAC insensitive to the message")
	}
}
