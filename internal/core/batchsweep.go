package core

import (
	"errors"
	"fmt"

	"snowbma/internal/bitstream"
	"snowbma/internal/device"
	"snowbma/internal/hdl"
	"snowbma/internal/obs"
)

// The verification phases of the attack are candidate sweeps: many
// variants of one bitstream that differ in a few LUT truth tables each.
// On hardware every trial costs a full reconfiguration (Report.Loads,
// the paper's cost metric); in the simulator the sweep packs up to 64
// candidates into one bitsliced fabric pass. The two accountings are
// kept strictly separate — Loads counts modeled hardware trials exactly
// as the scalar path would, BatchStats counts what the simulator
// actually executed.

// DefaultLanes is the sweep width a new Attack starts with: the full
// 64-lane register word.
const DefaultLanes = device.MaxLanes

// ErrLanes is wrapped by SetLanes for out-of-range sweep widths.
var ErrLanes = errors.New("lanes out of range")

// SetLanes sets the candidate-sweep width (lanes per bitsliced fabric
// pass). Width 1 disables batching and evaluates every candidate on the
// scalar path: the oracle of the differential sweep tests. Entry points
// never call it; they all sweep at DefaultLanes.
func (a *Attack) SetLanes(n int) error {
	if n < 1 || n > device.MaxLanes {
		return fmt.Errorf("core: %w: must be between 1 and %d, got %d", ErrLanes, device.MaxLanes, n)
	}
	a.lanes = n
	a.rep.Batch.Width = n
	return nil
}

// BatchStats surfaces the simulator-side cost of the candidate sweeps,
// deliberately separate from Report.Loads: a fabric pass evaluates up
// to 64 candidate lanes but models that many individual
// reconfigurations on real hardware, so Loads is invariant under the
// sweep width. LaneWords counts what the passes cost the simulator:
// every pass sweeps one 64-lane register word regardless of occupancy,
// so it grows by 1 per pass.
type BatchStats struct {
	Width         int // configured sweep width (lanes per fabric pass)
	Passes        int // bitsliced fabric passes executed
	LaneWords     int // 64-lane register words swept across all passes
	Lanes         int // candidate lanes evaluated across all passes
	Fallbacks     int // candidates diverted to the scalar path
	PatchedFrames int // frame patches applied across all lanes
}

// batchLoader is the optional fast path of a Victim: a device whose
// simulator can instantiate up to device.MaxLanes lane-patched copies
// of one base configuration. *device.FPGA implements it; a victim that
// does not is served entirely by the scalar path.
type batchLoader interface {
	LoadPatched(img []byte, patches []bitstream.PatchSet) (*device.Batch, error)
	// BatchOf skips the base image load when the device still holds the
	// base configuration from the previous pass.
	BatchOf(patches []bitstream.PatchSet) (*device.Batch, error)
}

// batchable reports whether a candidate's frame patches can ride one
// lane of a fabric pass: every frame must be a content frame of the
// pristine image (bitstream.Regions.ContentFrame). Anything touching the
// header or description frames — or bytes outside the FDRI payload —
// changes shared structure and takes the scalar path.
func (a *Attack) batchable(ps bitstream.PatchSet) bool {
	for _, fp := range ps {
		if _, _, err := a.regions.ContentFrame(fp.Frame); err != nil {
			return false
		}
	}
	return true
}

// baseImage returns the image the batch evaluator configures its lanes
// from: the plaintext copy, or the sealed base when the victim's flash
// was encrypted (sealed once, reused for every pass).
func (a *Attack) baseImage() ([]byte, error) {
	if a.env == nil {
		return a.plain, nil
	}
	if a.sealedBase == nil {
		sealed, err := bitstream.Seal(a.plain, a.env.kE, a.env.kA, a.env.cbcIV)
		if err != nil {
			return nil, err
		}
		a.sealedBase = sealed
	}
	return a.sealedBase, nil
}

// sweep evaluates a family of candidate modifications lazily: candidate
// i's lane chunk (up to Attack.lanes candidates) is built, diffed
// against the pristine image and evaluated in one bitsliced fabric pass
// the first time any of its members is consumed. build must write
// candidate i's modification into img (a fresh working copy) and must
// depend only on state that is stable for the lifetime of the sweep.
type sweep struct {
	a     *Attack
	n     int
	build func(i int, img []byte)
	z     [][]uint32
	errs  []error
	done  []bool
	// completed counts evaluated candidates, so chunk progress events
	// carry done/total without rescanning the done slice.
	completed int
}

func (a *Attack) newSweep(count, n int, build func(int, []byte)) *sweep {
	return &sweep{
		a: a, n: n, build: build,
		z:    make([][]uint32, count),
		errs: make([]error, count),
		done: make([]bool, count),
	}
}

// chunkOf returns the [lo, hi) span of the Attack.lanes-wide chunk
// containing candidate i.
func (s *sweep) chunkOf(i int) (int, int) {
	lo := i - i%s.a.lanes
	return lo, min(lo+s.a.lanes, len(s.done))
}

// run returns candidate i's keystream. It does no load accounting:
// callers increment Report.Loads when they consume a successful result,
// so lanes evaluated speculatively but never consumed (early exits,
// overlap skips) cost simulator time and zero modeled loads — the
// counter stays byte-for-byte identical to the scalar trial sequence.
func (s *sweep) run(i int) ([]uint32, error) {
	if !s.done[i] {
		s.eval(i)
	}
	return s.z[i], s.errs[i]
}

func (s *sweep) scalar(i int) {
	img := s.a.working()
	s.build(i, img)
	s.z[i], s.errs[i] = s.a.runCandidate(img, s.n)
	s.done[i] = true
	s.completed++
}

func (s *sweep) eval(i int) {
	bl, isBatch := s.a.dev.(batchLoader)
	if s.a.lanes <= 1 || !isBatch || s.a.regions == nil {
		s.scalar(i)
		return
	}
	lo, hi := s.chunkOf(i)
	span := s.a.tel.StartSpan("sweep.chunk",
		obs.KV("lo", lo), obs.KV("hi", hi))
	defer span.End()
	// Each evaluated chunk reports sweep progress on the live bus: a
	// dashboard sees done/total advance chunk by chunk while the sweep
	// runs, long before the phase span closes.
	defer func() {
		s.a.tel.Publish(obs.EventProgress, "sweep.chunk", float64(s.completed),
			obs.KV("total", len(s.done)), obs.KV("lo", lo), obs.KV("hi", hi),
			obs.KV("fallbacks", s.a.rep.Batch.Fallbacks))
	}()
	var idxs []int
	var patches []bitstream.PatchSet
	for j := lo; j < hi; j++ {
		if s.done[j] {
			continue
		}
		img := s.a.working()
		s.build(j, img)
		ps, err := s.a.parsed.DiffFrames(s.a.plain, img)
		if err != nil || !s.a.batchable(ps) {
			// The modification touches shared structure (false positives
			// matched outside the CLB/BRAM regions): scalar trial, which
			// may legitimately fail to load.
			s.a.rep.Batch.Fallbacks++
			s.z[j], s.errs[j] = s.a.runCandidate(img, s.n)
			s.done[j] = true
			s.completed++
			continue
		}
		idxs = append(idxs, j)
		patches = append(patches, ps)
	}
	if len(idxs) == 0 {
		return
	}
	zs, err := s.a.loadAndRunBatch(bl, patches, s.n)
	if err != nil {
		// The pass failed as a whole (base image rejected, patch set
		// refused): evaluate the chunk on the scalar path instead.
		for _, j := range idxs {
			s.a.rep.Batch.Fallbacks++
			s.scalar(j)
		}
		return
	}
	for k, j := range idxs {
		s.z[j] = zs[k]
		s.done[j] = true
		s.completed++
	}
}

// loadAndRunBatch is the batched analogue of runCandidate: one base
// configuration load, one lane per candidate patch set, one shared
// protocol run. It counts fabric passes and lanes — never Loads, which
// models per-candidate hardware reconfigurations.
func (a *Attack) loadAndRunBatch(bl batchLoader, patches []bitstream.PatchSet, n int) ([][]uint32, error) {
	var batch *device.Batch
	if a.baseLive {
		// The previous pass left the base configuration on the device:
		// reuse it without re-decoding the image.
		b, err := bl.BatchOf(patches)
		if err != nil {
			a.baseLive = false
			return nil, err
		}
		batch = b
	} else {
		base, err := a.baseImage()
		if err != nil {
			return nil, err
		}
		b, err := bl.LoadPatched(base, patches)
		if err != nil {
			return nil, err
		}
		batch = b
		a.baseLive = true
	}
	zs := hdl.GenerateKeystreamBatch(batch, a.iv, n)
	a.rep.Batch.Passes++
	a.rep.Batch.LaneWords++
	a.rep.Batch.Lanes += len(patches)
	for _, ps := range patches {
		a.rep.Batch.PatchedFrames += ps.Frames()
	}
	a.tel.Histogram("batch.lanes_per_pass").Observe(float64(len(patches)))
	return zs, nil
}
