package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"snowbma/internal/bitstream"
	"snowbma/internal/core"
	"snowbma/internal/corpus"
)

// censusWorkload is the triage user: one caller pushing a seeded corpus
// (every fourth design protected) through a fresh default corpus.Census
// per pass, then re-adding a few designs with a one-byte change each.
// Full passes exercise the scanner walk, the SHA-256 window memo and
// LUT extraction; the re-adds exercise the memo's incremental path,
// which a full-pass-only benchmark could not tell apart from a rescan.
type censusWorkload struct {
	designs []corpus.Design
	changes []censusChange
	// first holds the first complete pass's answer per design; every
	// later pass must reproduce it.
	first []corpus.DesignResult

	dedupHits, frames       int
	rescanned, rescanFrames int
	memo                    []float64
}

// censusChange is one re-add: a design with one byte changed, the
// whole-image (dedup off) answer for it, and how many memo windows the
// change dirtied.
type censusChange struct {
	design  int
	image   []byte
	want    corpus.DesignResult
	dirtied int
}

// chunkOverlap mirrors the census's window overlap: a window extends
// past its frame chunk by one candidate span minus a byte.
const chunkOverlap = (bitstream.SubVectors-1)*bitstream.SubVectorOffset + bitstream.SubVectorBytes - 1

func (w *censusWorkload) setup(s *session) error {
	src := corpus.NewSeeded(corpus.SeedOptions{Designs: s.cfg.Sizes.Designs, Seed: s.cfg.Seed})
	defer src.Close()
	for {
		d, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		w.designs = append(w.designs, d)
	}
	ref, err := corpus.New(corpus.Options{NoDedup: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for _, i := range rng.Perm(len(w.designs))[:min(s.cfg.Sizes.Readds, len(w.designs))] {
		img := append([]byte(nil), w.designs[i].Image...)
		at := rng.Intn(len(img))
		img[at] ^= byte(1 + rng.Intn(255))
		want, err := ref.Add(corpus.Design{ID: w.designs[i].ID, Image: img, Protected: w.designs[i].Protected})
		if err != nil {
			return err
		}
		dirtied := 0
		for start := 0; start < len(img); start += corpus.ChunkBytes {
			if start <= at && at < start+corpus.ChunkBytes+chunkOverlap {
				dirtied++
			}
		}
		w.changes = append(w.changes, censusChange{design: i, image: img, want: want, dirtied: dirtied})
	}
	return nil
}

func (w *censusWorkload) run(s *session) error {
	covered := 0
	for _, d := range w.designs {
		if d.Protected {
			covered++
		}
	}
	op := 0
	for time.Now().Before(s.deadline) {
		cen, err := corpus.New(corpus.Options{})
		if err != nil {
			return err
		}
		var pass []corpus.DesignResult
		for _, d := range w.designs {
			if !time.Now().Before(s.deadline) {
				break
			}
			dr, ok := w.add(s, cen, op, true, d)
			op++
			if !ok {
				continue
			}
			if dr.Exposed == d.Protected || (d.Protected && dr.TargetLUTs != 0) || (!d.Protected && dr.TargetLUTs != 32) {
				s.wrong("census: design %s (protected=%v): exposed=%v with %d target LUTs", dr.ID[:16], d.Protected, dr.Exposed, dr.TargetLUTs)
			}
			w.dedupHits += dr.DedupHits
			w.frames += dr.Frames
			pass = append(pass, dr)
		}
		if len(pass) < len(w.designs) {
			break // the window closed mid-pass
		}
		if rep := cen.Report(); rep.Exposed != len(w.designs)-covered || rep.Covered != covered {
			s.wrong("census pass: %d exposed / %d covered, want %d / %d", rep.Exposed, rep.Covered, len(w.designs)-covered, covered)
		}
		w.memo = append(w.memo, float64(cen.MemoLen()))
		if w.first == nil {
			w.first = pass
		} else {
			for i := range pass {
				if !slices.Equal(pass[i].Matches, w.first[i].Matches) || pass[i].DualHits != w.first[i].DualHits {
					s.wrong("census: design %d answers differently than in the first pass", i)
				}
			}
		}
		for _, ch := range w.changes {
			if !time.Now().Before(s.deadline) {
				break
			}
			d := w.designs[ch.design]
			dr, ok := w.add(s, cen, op, false, corpus.Design{ID: d.ID, Image: ch.image, Protected: d.Protected})
			op++
			if !ok {
				continue
			}
			if !slices.Equal(dr.Matches, ch.want.Matches) || dr.DualHits != ch.want.DualHits || dr.TargetLUTs != ch.want.TargetLUTs {
				s.wrong("census re-add of design %d: answer differs from the whole-image scan", ch.design)
			}
			if dr.FramesScanned > ch.dirtied || dr.FramesScanned+dr.DedupHits != dr.Frames {
				s.wrong("census re-add of design %d: scanned %d of %d windows (%d memo hits), the change dirtied %d",
					ch.design, dr.FramesScanned, dr.Frames, dr.DedupHits, ch.dirtied)
			}
			w.rescanned += dr.FramesScanned
			w.rescanFrames += dr.Frames
		}
	}
	return nil
}

// add times one Census.Add. A traced add is split into the scanner time
// the census's own counters report, an estimate of its LUT extraction
// (the same extraction, rerun after the add), and the rest.
func (w *censusWorkload) add(s *session, cen *corpus.Census, op int, main bool, d corpus.Design) (corpus.DesignResult, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	traced := s.traced(op)
	var before core.ScanStats
	if traced {
		before = cen.Report().Scan
	}
	t0w, t0 := wallNow(), time.Now()
	dr, err := cen.Add(d)
	lat, t1w := time.Since(t0), wallNow()
	if err != nil {
		s.failed(err)
		return dr, false
	}
	root := -1
	if traced {
		st := cen.Report().Scan
		scan := int64(st.CompileTime + st.ScanTime - before.CompileTime - before.ScanTime)
		x0 := time.Now()
		if _, err := bitstream.ExtractLUTs(d.Image); err != nil {
			s.wrong("census: extracting LUTs of %s: %v", d.ID[:16], err)
		}
		extract := int64(time.Since(x0))
		kind := "add"
		if !main {
			kind = "readd"
		}
		root = s.tr.op(kind, t0w, t1w)
		add := s.tr.add(root, "corpus.add", t0w, t1w)
		scanEnd := min(t0w+scan, t1w)
		s.tr.add(add, "core.scan", t0w, scanEnd)
		s.tr.add(add, "bitstream.extract_luts", scanEnd, min(scanEnd+extract, t1w))
		s.acc("core.scan_catalogue_misses", float64(st.CatalogueMisses-before.CatalogueMisses), 1)
		s.acc("core.scan_deep_compares", float64(st.DeepCompares-before.DeepCompares), 1)
	}
	s.done(main, traced, lat, root)
	return dr, true
}

func (w *censusWorkload) layers(s *session) {
	s.acc("corpus.dedup_rate", float64(w.dedupHits), float64(w.frames))
	s.acc("corpus.frames_scanned_ratio", float64(w.rescanned), float64(w.rescanFrames))
	if len(w.memo) > 0 {
		s.acc("corpus.memo_entries", w.memo[len(w.memo)-1], 1)
	}
}

func (w *censusWorkload) close() error { return nil }

func init() {
	// The census's window overlap is unexported; fail loudly if the
	// mirror above stops matching its documented 304 bytes.
	if chunkOverlap != 304 {
		panic(fmt.Sprintf("snowbench: census window overlap %d, want 304", chunkOverlap))
	}
}
