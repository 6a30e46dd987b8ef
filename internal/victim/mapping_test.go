package victim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestVictimMappingPinned pins the mapped SNOW 3G design: any change to
// the mapping recipe, packing or placement moves the LUT count, the depth
// or the image hash. The unprotected and protected rows are the
// 736 → 896 LUTs, depth 3 → 5 of the countermeasure's cost.
func TestVictimMappingPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		luts  int
		depth int
		image string
	}{
		{"default", Config{Key: testKey}, 736, 3,
			"978ac1bb82358faa67caa24a192ded02fafb81ab7eb3a37c6c1e739fd5c65954"},
		{"protected", Config{Key: testKey, Protected: true}, 896, 5,
			"b71c39959d907648e7017043873ed2073e604e2d0d47052f0ea478b5fabe5bea"},
		{"autoprotect-128", Config{Key: testKey, AutoProtectBits: 128}, 925, 4,
			"b798f92a260749160d5bf65a05d3248b8b95e038ba6254877136afa7f6a5ea2d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, m, err := synthesize(tc.cfg.normalized())
			if err != nil {
				t.Fatal(err)
			}
			if m.luts != tc.luts || m.depth != tc.depth {
				t.Errorf("mapped %d LUTs at depth %d, want %d at depth %d", m.luts, m.depth, tc.luts, tc.depth)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != tc.image {
				t.Errorf("image SHA-256 %s, want %s", got, tc.image)
			}
		})
	}
}
