package device

import (
	"math/rand"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/hdl"
	"snowbma/internal/snow3g"
)

// FuzzClockBatchDifferential is the batch evaluator's differential
// oracle: for a fuzzed lane count (1..MaxLanes), IV and per-lane random
// LUT / BRAM patches, every lane extracted from ClockBatch must match a
// scalar device loaded with that lane's full image. The seed corpus pins
// lane counts 1, 2, 3 and 64.
func FuzzClockBatchDifferential(f *testing.F) {
	fx := newBatchFixture(f)
	f.Add(uint8(1), int64(1), uint64(0xEA024714AD5C4D84))
	f.Add(uint8(2), int64(7), uint64(0xDF1F9B251C0BF45F))
	f.Add(uint8(64), int64(1234), uint64(0x0123456789ABCDEF))
	f.Add(uint8(65), int64(55), uint64(0x082EFA98EC4E6C89))  // 2 lanes
	f.Add(uint8(128), int64(21), uint64(0x452821E638D01377)) // 1 lane
	f.Add(uint8(255), int64(12), uint64(0xBE5466CF34E90C6C)) // 64 lanes: full word
	f.Fuzz(func(t *testing.T, laneByte uint8, patchSeed int64, ivSeed uint64) {
		lanes := 1 + int(laneByte)%MaxLanes
		rng := rand.New(rand.NewSource(patchSeed))
		iv := snow3g.IV{uint32(ivSeed), uint32(ivSeed >> 32), uint32(ivSeed) ^ 0xA5A5A5A5, uint32(ivSeed>>32) ^ 0x5A5A5A5A}
		patches := make([]bitstream.PatchSet, lanes)
		images := make([][]byte, lanes)
		for L := 0; L < lanes; L++ {
			switch rng.Intn(3) {
			case 0:
				images[L] = fx.img
			case 1:
				images[L] = fx.withLUT(t, rng.Intn(len(fx.desc.LUTs)), boolfn.TT(rng.Uint64()))
			default:
				bram := rng.Intn(len(fx.desc.BRAMs))
				entry := rng.Intn(1 << len(fx.desc.BRAMs[bram].Addr))
				images[L] = fx.withBRAMWord(t, bram, entry, rng.Uint64())
			}
			patches[L] = fx.diff(t, images[L])
		}
		dev := New([bitstream.KeySize]byte{})
		batch, err := dev.LoadPatched(fx.img, patches)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3
		got := hdl.GenerateKeystreamBatch(batch, iv, n)
		for L := 0; L < lanes; L++ {
			ref := New([bitstream.KeySize]byte{})
			if err := ref.Load(images[L]); err != nil {
				t.Fatal(err)
			}
			want := hdl.GenerateKeystream(ref, iv, n)
			if !equalWords(got[L], want) {
				t.Fatalf("lane %d/%d diverges: batch %08x != scalar %08x", L, lanes, got[L], want)
			}
		}
	})
}
