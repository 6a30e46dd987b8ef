package core

import (
	"math/rand"
	"slices"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

func TestFindLUTTinyBuffer(t *testing.T) {
	if got := FindLUT(make([]byte, 10), boolfn.F2, FindOptions{}); got != nil {
		t.Fatalf("tiny buffer returned %v", got)
	}
	if got := FindLUT(nil, boolfn.F2, FindOptions{}); got != nil {
		t.Fatalf("nil buffer returned %v", got)
	}
}

// TestFindLUTManyWorkersOnSmallInput: a scan harness row of two
// frames, fewer split points than the parallel-64 value has workers.
func TestFindLUTManyWorkersOnSmallInput(t *testing.T) {
	frames := make([]byte, 2*bitstream.FrameBytes)
	if err := bitstream.WriteLUT(frames, bitstream.Loc{Frame: 0, Slot: 5}, boolfn.F8); err != nil {
		t.Fatal(err)
	}
	if res := checkScan(t, &scanCase{name: "two frames", img: frames, fns: []boolfn.TT{boolfn.F8}}, scanImpls); !slices.Contains(res.indexes[0], 10) {
		t.Fatal("oversubscribed worker count lost the match")
	}
}

func TestWriteReadMatchProperty(t *testing.T) {
	// For random functions, locations and slice types, FindLUT must
	// locate the plant and Write/ReadMatch must round trip arbitrary
	// replacement functions through the matched permutation.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		f := boolfn.TT(rng.Uint64())
		if f == boolfn.Const0 || f == boolfn.Const1 {
			continue
		}
		frames := make([]byte, 6*bitstream.FrameBytes)
		loc := bitstream.Loc{
			Frame: rng.Intn(6),
			Slot:  rng.Intn(bitstream.SlotsPerFrame),
			Type:  bitstream.SliceType(rng.Intn(2)),
		}
		if err := bitstream.WriteLUT(frames, loc, f); err != nil {
			t.Fatal(err)
		}
		wantIdx := loc.Frame*bitstream.FrameBytes + loc.Slot*bitstream.SubVectorBytes
		matches := FindLUT(frames, f, FindOptions{})
		i := slices.IndexFunc(matches, func(m Match) bool { return m.Index == wantIdx })
		if i < 0 {
			t.Fatalf("trial %d: plant not found", trial)
		}
		match := &matches[i]
		if got := ReadMatch(frames, *match); got != f {
			t.Fatalf("trial %d: ReadMatch %v != %v", trial, got, f)
		}
		repl := boolfn.TT(rng.Uint64())
		WriteMatch(frames, *match, repl)
		if got := ReadMatch(frames, *match); got != repl {
			t.Fatalf("trial %d: replacement round trip failed", trial)
		}
		// The physical bytes must decode to the permuted replacement.
		direct, err := bitstream.ReadLUT(frames[:], loc)
		if err != nil {
			t.Fatal(err)
		}
		if direct != repl.Permute(match.Perm) {
			t.Fatalf("trial %d: physical table is not the permuted replacement", trial)
		}
	}
}

// TestFindDualXORBounds: a scan harness row of one dual-XOR plant; the
// full sweep must report it and a window ending before it must not.
func TestFindDualXORBounds(t *testing.T) {
	frames := make([]byte, 3*bitstream.FrameBytes)
	d := boolfn.DualLUT{
		O5: boolfn.Shrink5(boolfn.Xor(boolfn.A(1), boolfn.A(2))),
		O6: boolfn.TT5(0x1234ABCD),
	}
	loc := bitstream.Loc{Frame: 1, Slot: 4, Type: bitstream.SliceL}
	if err := bitstream.WriteLUT(frames, loc, d.Pack()); err != nil {
		t.Fatal(err)
	}
	base := bitstream.FrameBytes + 4*bitstream.SubVectorBytes
	res := checkScan(t, &scanCase{name: "bounds", img: frames, windows: [][2]int{{0, 0}, {0, base - 10}}}, scanImpls)
	if !slices.Contains(res.duals[0], base) || slices.Contains(res.duals[1], base) {
		t.Fatalf("plant at %d: full sweep %v, window ending before it %v", base, res.duals[0], res.duals[1])
	}
}

func TestCandidateCountsStableAcrossCalls(t *testing.T) {
	atk := newAttack(t, false, false, nil)
	a := atk.CountCandidates()
	b := atk.CountCandidates()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("candidate counts not deterministic")
		}
	}
}

func TestAttackEmptyFlash(t *testing.T) {
	if _, err := NewAttack(emptyVictim{}, attackIV, nil); err == nil {
		t.Fatal("attack accepted a victim with empty flash")
	}
}

type emptyVictim struct{}

func (emptyVictim) Load([]byte) error                       { return nil }
func (emptyVictim) SetInput(string, bool)                   {}
func (emptyVictim) Clock()                                  {}
func (emptyVictim) Read(string) bool                        { return false }
func (emptyVictim) ReadFlash() []byte                       { return nil }
func (emptyVictim) SideChannelKey() [bitstream.KeySize]byte { return [bitstream.KeySize]byte{} }
