package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"snowbma"
	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/victim"
)

// coldWorkload is the CLI user's path: one client, each op a fresh
// process, as `snowbma attack` and `snowbma findlut -bits` run. Ops
// alternate between an attack (synthesis, then the attack) and a
// findlut scan of an image written during set-up. Every cache the
// program keeps per process starts empty in every op.
type coldWorkload struct {
	dir    string
	hot    []victimInput
	images []string
	sha    [][sha256.Size]byte
	want   [][]int
	rng    *rand.Rand
	// passes is the sweep pass count first seen per hot victim; every
	// later attack on it, traced or not, must report the same.
	passes map[int]int
}

// opInput is what the parent hands an op process.
type opInput struct {
	Key    snowbma.Key `json:"key"`
	IV     snowbma.IV  `json:"iv"`
	Image  string      `json:"image,omitempty"`
	Traced bool        `json:"traced"`
}

// opSpan is one layer timed inside an op process.
type opSpan struct {
	Name       string `json:"name"`
	Start, End int64
}

// opOutput is what an op process reports.
type opOutput struct {
	// Start is when the process reached main; Done when its answer
	// was ready (wall-clock ns).
	Start, Done int64
	Spans       []opSpan `json:"spans,omitempty"`

	Key       snowbma.Key `json:"key"`
	IV        snowbma.IV  `json:"iv"`
	Verified  bool        `json:"verified"`
	Loads     int         `json:"loads"`
	Passes    int         `json:"passes"`
	Lanes     int         `json:"lanes"`
	LaneWords int         `json:"lane_words"`
	ImageSHA  []byte      `json:"image_sha,omitempty"`

	Matches         []int `json:"matches,omitempty"`
	CatalogueMisses int   `json:"catalogue_misses"`
	DeepCompares    int64 `json:"deep_compares"`

	AllocBytes uint64 `json:"alloc_bytes"`
}

func (w *coldWorkload) setup(s *session) error {
	if err := os.MkdirAll(filepath.Join(s.cfg.Out, "tmp"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(s.cfg.Out, "tmp"), "cold-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.hot = hotSet(s.cfg.Seed, s.cfg.Sizes.Hot)
	w.rng = rand.New(rand.NewSource(s.cfg.Seed))
	w.passes = map[int]int{}
	f := boolfn.MustParse(targetExpr)
	for i, h := range w.hot {
		v, err := victim.Build(victim.Config{Key: h.Key})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("hot-%d.bit", i))
		if err := os.WriteFile(path, v.Image, 0o644); err != nil {
			return err
		}
		w.images = append(w.images, path)
		w.sha = append(w.sha, sha256.Sum256(v.Image))
		w.want = append(w.want, findOracle(v.Image, f))
	}
	// One empty process proves the op path works, and pages the binary
	// in, before timing starts.
	var out bytes.Buffer
	_, err = runSelf(roleNoop, nil, &out, 30*time.Second)
	return err
}

func (w *coldWorkload) run(s *session) error {
	s.clients(1, func(_, i int) {
		attack := i%2 == 0
		idx := w.rng.Intn(len(w.hot))
		if i == 0 {
			idx = 0 // the paper's key and IV
		}
		// Trace attack/findlut pairs alternately, so both kinds are seen
		// traced and untraced.
		traced := s.tr != nil && (i/2)%2 == 0
		role := roleColdFindLUT
		if attack {
			role = roleColdAttack
		}
		in, _ := json.Marshal(opInput{Key: w.hot[idx].Key, IV: w.hot[idx].IV, Image: w.images[idx], Traced: traced})
		var stdout bytes.Buffer
		t0w, t0 := wallNow(), time.Now()
		rss, err := runSelf(role, in, &stdout, 2*time.Minute)
		lat, t1w := time.Since(t0), wallNow()
		if err != nil {
			s.failed(err)
			return
		}
		var out opOutput
		if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
			s.failed(fmt.Errorf("op output: %w", err))
			return
		}
		w.check(s, idx, attack, traced, &out)
		root := -1
		if traced {
			kind := "findlut"
			if attack {
				kind = "attack"
			}
			root = s.tr.op(kind, t0w, t1w)
			s.tr.add(root, "process.start", t0w, out.Start)
			for _, sp := range out.Spans {
				s.tr.add(root, sp.Name, sp.Start, sp.End)
			}
			s.tr.add(root, "process.exit", out.Done, t1w)
		}
		s.done(attack, traced, lat, root)
		if attack {
			s.mu.Lock()
			s.opRSS = append(s.opRSS, rss)
			s.mu.Unlock()
		}
		s.acc("go.alloc_mb_per_op", float64(out.AllocBytes)/1e6, 1)
		s.acc("core.scan_catalogue_misses", float64(out.CatalogueMisses), 1)
		s.acc("core.scan_deep_compares", float64(out.DeepCompares), 1)
		if attack {
			s.acc("core.loads", float64(out.Loads), 1)
			s.acc("core.sweep_passes", float64(out.Passes), 1)
			s.acc("core.lane_utilisation", float64(out.Lanes), float64(out.LaneWords*64))
		}
	})
	return nil
}

// check holds an op's answer against what the set-up derived.
func (w *coldWorkload) check(s *session, idx int, attack, traced bool, out *opOutput) {
	h := w.hot[idx]
	if !attack {
		if !slices.Equal(out.Matches, w.want[idx]) {
			s.wrong("cold findlut on victim %d: %d matches, oracle has %d", idx, len(out.Matches), len(w.want[idx]))
		}
		return
	}
	if !out.Verified || out.Key != h.Key || out.IV != h.IV {
		s.wrong("cold attack on victim %d: verified=%v key %08x want %08x", idx, out.Verified, out.Key, h.Key)
	}
	if out.Loads != wantLoads {
		s.wrong("cold attack on victim %d: %d loads, want %d", idx, out.Loads, wantLoads)
	}
	if traced && !bytes.Equal(out.ImageSHA, w.sha[idx][:]) {
		s.wrong("cold attack on victim %d: staged synthesis image differs from victim.Build's", idx)
	}
	if p, ok := w.passes[idx]; !ok {
		w.passes[idx] = out.Passes
	} else if p != out.Passes {
		s.wrong("cold attack on victim %d: %d sweep passes, earlier %d (traced=%v)", idx, out.Passes, p, traced)
	}
}

func (w *coldWorkload) layers(*session) {}

func (w *coldWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	return os.RemoveAll(w.dir)
}

// coldOp is the body of one cold op process.
func coldOp(role string, input []byte, start int64) (*opOutput, error) {
	var in opInput
	if err := json.Unmarshal(input, &in); err != nil {
		return nil, err
	}
	out := &opOutput{Start: start}
	mark := func(name string, t0 int64) {
		if in.Traced {
			out.Spans = append(out.Spans, opSpan{Name: name, Start: t0, End: wallNow()})
		}
	}
	ctx := context.Background()
	if role == roleColdFindLUT {
		t := wallNow()
		bits, err := os.ReadFile(in.Image)
		mark("bitstream.read", t)
		if err != nil {
			return nil, err
		}
		t = wallNow()
		matches, st, err := snowbma.FindLUTs(ctx, bits, targetExpr)
		mark("core.scan", t)
		if err != nil {
			return nil, err
		}
		out.Matches, out.CatalogueMisses, out.DeepCompares = matches, st.CatalogueMisses, st.DeepCompares
	} else {
		rep, err := coldAttack(ctx, in, out, mark)
		if err != nil {
			return nil, err
		}
		out.Key, out.IV, out.Verified, out.Loads = rep.Key, rep.IV, rep.Verified, rep.Loads
		out.Passes, out.Lanes, out.LaneWords = rep.Batch.Passes, rep.Batch.Lanes, rep.Batch.LaneWords
		out.CatalogueMisses, out.DeepCompares = rep.Scan.CatalogueMisses, rep.Scan.DeepCompares
	}
	out.Done = wallNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.AllocBytes = ms.TotalAlloc
	return out, nil
}

// coldAttack is what `snowbma attack` does. Untraced, it calls the
// facade; traced, it makes the same calls one public stage at a time:
// the synthesis stages of victim.Build, then the attack phases in the
// order core.Attack.Run takes them, then the restoring reload.
func coldAttack(ctx context.Context, in opInput, out *opOutput, mark func(string, int64)) (*snowbma.Report, error) {
	if !in.Traced {
		v, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: in.Key})
		if err != nil {
			return nil, err
		}
		return snowbma.Attack(ctx, v, in.IV)
	}
	img, dev, err := stagedBuild(victim.Config{Key: in.Key}, func(name string, f func() error) error {
		t := wallNow()
		err := f()
		mark(name, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(img)
	out.ImageSHA = sum[:]

	t := wallNow()
	atk, err := core.NewAttack(dev, in.IV, nil)
	if err == nil {
		err = atk.SetLanes(snowbma.DefaultLanes)
	}
	if err == nil {
		atk.SetContext(ctx)
	}
	mark("core.new_attack", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	atk.CountCandidates()
	mark("core.scan", t)
	t = wallNow()
	err = atk.VerifyZPath()
	mark("core.verify_zpath", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	err = atk.CollectFeedbackCandidates()
	mark("core.collect_feedback", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	beta, err := atk.MakeKeyIndependent()
	mark("core.make_key_independent", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	err = atk.IdentifyVPairs(beta)
	mark("core.identify_vpairs", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	err = atk.ExtractKey()
	mark("core.extract_key", t)
	if err != nil {
		return nil, err
	}
	t = wallNow()
	err = dev.Load(dev.ReadFlash())
	rep := atk.Report()
	mark("device.restore", t)
	return rep, err
}
