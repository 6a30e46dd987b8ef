package corpus

import (
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/obs"
)

// DefaultTargetExpr is the W-XOR census target: the z_t-path
// (s0 ⊕ R1 ⊕ R2)-shaped LUT the paper's fault injection needs (Table II
// row 1). The FINDLUT scan lists its candidates — genuine instances and
// byte-coincidence false positives alike, exactly as Table II does.
// Exposure is decided by the extracted-LUT class census instead: a
// design whose occupied LUT slots include the target's P-class is
// exposed; a design with none — the Section VII-A countermeasure splits
// the visible 3-XOR into indistinguishable XOR2s — is covered.
const DefaultTargetExpr = "(a1^a2^a3)a4a5!a6"

// ChunkBytes is the re-add granularity: one fabric frame. Images are
// cut on this fixed grid, and a re-add rescans only the chunks whose
// scan window changed since the design's previous add.
const ChunkBytes = bitstream.FrameBytes

// chunkOverlap is how far past its chunk a scan window must extend so
// every base position inside the chunk sees its full candidate span:
// a FINDLUT match at position l reads bytes [l, l+span), so the last
// in-chunk position needs span-1 trailing bytes. The overlap is part of
// the digested window — a chunk's result depends on those bytes too.
const chunkOverlap = (bitstream.SubVectors-1)*bitstream.SubVectorOffset + bitstream.SubVectorBytes - 1

// Options parameterizes a Census engine.
type Options struct {
	// NoDedup makes every add, re-adds included, scan the whole image:
	// the oracle of the window-reuse path. The results are identical
	// either way — pinned by the re-add table.
	NoDedup bool
	// Parallel bounds the whole-image scan worker pool (0 = all CPUs).
	// Re-add window scans are single-worker: a 708-byte window does not
	// amortize a pool.
	Parallel int
	// Expr overrides the census target function ("" = DefaultTargetExpr).
	Expr string
	// Tel receives the census span and per-design progress events
	// (nil-safe). Scanner-level spans are deliberately not attached: at
	// thousands of designs they would flood the tracer.
	Tel *obs.Telemetry
	// Logf receives per-design progress lines (nil = silent).
	Logf func(string, ...any)
}

// record is what a design's last add leaves for its next re-add: one
// digest per chunk window and the absolute dual-XOR positions (its
// matches sit in the design's result).
type record struct {
	windows []uint64
	duals   []int
}

// DesignResult is one design's census outcome.
type DesignResult struct {
	ID        string `json:"id"`
	Protected bool   `json:"protected,omitempty"`
	Bytes     int    `json:"bytes"`
	// Frames is the image's chunk count; FramesScanned how many were
	// scanned during this add, and DedupHits how many windows were
	// reused from this design's previous add. A first add scans the
	// whole image: FramesScanned == Frames and DedupHits == 0.
	Frames        int `json:"frames"`
	FramesScanned int `json:"frames_scanned"`
	DedupHits     int `json:"dedup_hits,omitempty"`
	// Matches are the ascending byte indexes of target-function
	// candidates (genuine and false positive, as in Table II); DualHits
	// counts Section VII-B dual-XOR positions.
	Matches  []int `json:"matches,omitempty"`
	DualHits int   `json:"dual_hits,omitempty"`
	// TargetLUTs counts occupied LUT slots whose extracted table falls in
	// the target's P-class — the genuine population behind the candidate
	// list (32 on an unprotected SNOW 3G design, 0 under the
	// countermeasure). -1 when the image does not parse as a full
	// bitstream (directory-ingested fragments), in which case Exposed
	// falls back to the candidate heuristic.
	TargetLUTs int `json:"target_luts"`
	// Exposed: the design genuinely instantiates the W-XOR target, so
	// the paper's fault is injectable. Covered is its complement at
	// report scope.
	Exposed bool `json:"exposed"`
	// Rescans counts incremental re-adds of this design ID.
	Rescans int `json:"rescans,omitempty"`
}

// Report is the deterministic corpus-wide vulnerability report: for a
// fixed corpus and options, every field except the ScanStats timings is
// reproducible run to run.
type Report struct {
	Expr    string `json:"expr"`
	Designs int    `json:"designs"`
	// Exposed counts designs whose LUT census holds the W-XOR target
	// class; Covered the rest; Protected how many carried the
	// countermeasure.
	Exposed   int `json:"exposed"`
	Covered   int `json:"covered"`
	Protected int `json:"protected"`
	// Frames / FramesScanned / DedupHits sum the per-add counts across
	// every add (re-adds included); DedupRate = DedupHits/Frames.
	Frames        int64   `json:"frames"`
	FramesScanned int64   `json:"frames_scanned"`
	DedupHits     int64   `json:"dedup_hits"`
	DedupRate     float64 `json:"dedup_rate"`
	BytesTotal    int64   `json:"bytes_total"`
	Matches       int     `json:"matches"`
	DualHits      int     `json:"dual_hits"`
	// Scan accumulates the stats of every real scanner pass (reused
	// windows pay nothing and appear only in DedupHits).
	Scan    core.ScanStats `json:"scan"`
	Results []DesignResult `json:"results"`
}

// Census is the corpus scan engine. It is not safe for concurrent use:
// one census run owns one engine (the service spawns one per corpus
// job). Add may be called directly, or Run drains a Source.
type Census struct {
	opt  Options
	tel  *obs.Telemetry
	full *core.Scanner // whole-image path (first adds)
	chnk *core.Scanner // chunk-window path (re-adds)

	// seed keys the window digests; it is drawn per engine, so an
	// outside image cannot be crafted to collide with a known window.
	seed    maphash.Seed
	byID    map[string]int // design ID → index into results and recs
	results []DesignResult
	recs    []record

	// class is the target's P-class, sorted: at most 720 tables, fixed
	// at New, so classifying untrusted LUT contents grows nothing. A
	// table g is in it iff PClassCanon(g) == PClassCanon(target).
	class []boolfn.TT

	frames, framesScanned, dedupHits, bytesTotal int64
	scan                                         core.ScanStats
}

// New builds a census engine. The target expression compiles once into
// both scanners' shared candidate catalogue (served by the process-wide
// catalogue cache); the compiled anchor index is cached on each scanner
// across every design and every chunk.
func New(opt Options) (*Census, error) {
	expr := opt.Expr
	if expr == "" {
		expr = DefaultTargetExpr
		opt.Expr = expr
	}
	f, err := boolfn.ParseAuto(expr)
	if err != nil {
		return nil, fmt.Errorf("corpus: expr: %w", err)
	}
	c := &Census{
		opt:   opt,
		tel:   opt.Tel,
		seed:  maphash.MakeSeed(),
		byID:  map[string]int{},
		class: boolfn.PClass(f),
	}
	c.full = core.NewScanner(core.FindOptions{Parallel: opt.Parallel})
	c.full.AddFunction("t", f).AddDualXOR("w", 0, 0)
	c.chnk = core.NewScanner(core.FindOptions{Parallel: 1})
	c.chnk.AddFunction("t", f).AddDualXOR("w", 0, 0)
	return c, nil
}

// Add scans one design and folds it into the report. The first add of
// an ID scans the whole image. Re-adding a known ID rescans only the
// chunk windows whose digest changed since that ID's last add, and
// reuses the previous result everywhere else.
func (c *Census) Add(d Design) (DesignResult, error) {
	if d.ID == "" {
		return DesignResult{}, fmt.Errorf("corpus: design without an ID")
	}
	if len(d.Image) == 0 {
		return DesignResult{}, fmt.Errorf("corpus: design %s has an empty image", d.ID)
	}
	dr := DesignResult{
		ID:        d.ID,
		Protected: d.Protected,
		Bytes:     len(d.Image),
		Frames:    (len(d.Image) + ChunkBytes - 1) / ChunkBytes,
	}
	i, known := c.byID[d.ID]
	var rec record
	if known && !c.opt.NoDedup {
		rec = c.rescan(d.Image, c.recs[i], c.results[i].Matches, &dr)
	} else {
		rec = c.scanWhole(d.Image, &dr)
	}
	dr.DualHits = len(rec.duals)
	dr.TargetLUTs = c.classify(d.Image)
	if dr.TargetLUTs >= 0 {
		dr.Exposed = dr.TargetLUTs > 0
	} else {
		dr.Exposed = len(dr.Matches) > 0
	}

	c.frames += int64(dr.Frames)
	c.framesScanned += int64(dr.FramesScanned)
	c.dedupHits += int64(dr.DedupHits)
	c.bytesTotal += int64(dr.Bytes)
	if known {
		dr.Rescans = c.results[i].Rescans + 1
		c.results[i], c.recs[i] = dr, rec
	} else {
		c.byID[d.ID] = len(c.results)
		c.results = append(c.results, dr)
		c.recs = append(c.recs, rec)
	}
	return dr, nil
}

// scanWhole is the first-add path: one whole-image scan, plus the
// window digests the next re-add compares against.
func (c *Census) scanWhole(img []byte, dr *DesignResult) record {
	res := c.full.Scan(img)
	c.scan.Accumulate(res.Stats)
	dr.FramesScanned = dr.Frames
	for _, m := range res.Matches["t"] {
		dr.Matches = append(dr.Matches, m.Index)
	}
	rec := record{duals: res.DualHits["w"]}
	if !c.opt.NoDedup {
		rec.windows = make([]uint64, 0, dr.Frames)
		for start := 0; start < len(img); start += ChunkBytes {
			rec.windows = append(rec.windows, maphash.Bytes(c.seed, window(img, start)))
		}
	}
	return rec
}

// rescan is the re-add path. Window w is clean iff the previous image
// had a window w with the same digest: its bytes are then equal (a
// 64-bit collision under the engine's secret seed aside), so the
// previous matches and dual positions of its chunk stand. A dirty
// window is scanned alone; it holds every byte its chunk's positions
// read, and a truncated last window excludes exactly the positions a
// whole-image scan would. A length change needs no case of its own: a
// window that runs into the new end hashes different bytes.
func (c *Census) rescan(img []byte, old record, prev []int, dr *DesignResult) record {
	rec := record{windows: make([]uint64, 0, dr.Frames)}
	for w, start := 0, 0; start < len(img); w, start = w+1, start+ChunkBytes {
		win := window(img, start)
		h := maphash.Bytes(c.seed, win)
		rec.windows = append(rec.windows, h)
		end := start + ChunkBytes
		if w < len(old.windows) && old.windows[w] == h {
			dr.DedupHits++
			dr.Matches = append(dr.Matches, within(prev, start, end)...)
			rec.duals = append(rec.duals, within(old.duals, start, end)...)
			continue
		}
		dr.FramesScanned++
		res := c.chnk.Scan(win)
		c.scan.Accumulate(res.Stats)
		for _, m := range res.Matches["t"] {
			if m.Index < ChunkBytes { // the next chunk owns the rest
				dr.Matches = append(dr.Matches, start+m.Index)
			}
		}
		for _, p := range res.DualHits["w"] {
			if p < ChunkBytes {
				rec.duals = append(rec.duals, start+p)
			}
		}
	}
	return rec
}

// window is the scan window of the chunk at start: the chunk plus
// chunkOverlap trailing bytes, clipped to the image.
func window(img []byte, start int) []byte {
	return img[start:min(start+ChunkBytes+chunkOverlap, len(img))]
}

// within returns the ascending xs that fall in [lo, hi).
func within(xs []int, lo, hi int) []int {
	return xs[sort.SearchInts(xs, lo):sort.SearchInts(xs, hi)]
}

// classify counts the design's occupied LUT slots in the target's
// P-class — the ground truth the FINDLUT candidate list approximates.
// Returns -1 if the image does not parse as a full bitstream.
func (c *Census) classify(img []byte) int {
	luts, err := bitstream.ExtractLUTs(img)
	if err != nil {
		return -1
	}
	n := 0
	for _, l := range luts {
		if _, hit := slices.BinarySearch(c.class, l.Init); hit {
			n++
		}
	}
	return n
}

// MemoLen reports the number of window digests held for re-adds.
func (c *Census) MemoLen() int {
	n := 0
	for _, r := range c.recs {
		n += len(r.windows)
	}
	return n
}

// Report assembles the corpus-wide report from the engine's current
// state. It may be called repeatedly; each call reflects every Add so
// far.
func (c *Census) Report() *Report {
	rep := &Report{
		Expr:          c.opt.Expr,
		Frames:        c.frames,
		FramesScanned: c.framesScanned,
		DedupHits:     c.dedupHits,
		BytesTotal:    c.bytesTotal,
		Scan:          c.scan,
		Results:       append([]DesignResult(nil), c.results...),
	}
	rep.tally()
	return rep
}

// tally recounts the headline figures (Designs, Exposed, Covered,
// Protected, Matches, DualHits, DedupRate) from Results and the frame
// counters, leaving Results in the order it finds them.
func (rep *Report) tally() {
	rep.Designs = len(rep.Results)
	for _, dr := range rep.Results {
		if dr.Exposed {
			rep.Exposed++
		} else {
			rep.Covered++
		}
		if dr.Protected {
			rep.Protected++
		}
		rep.Matches += len(dr.Matches)
		rep.DualHits += dr.DualHits
	}
	if rep.Frames > 0 {
		rep.DedupRate = float64(rep.DedupHits) / float64(rep.Frames)
	}
}

// Run drains a source through the engine and returns the report.
// Cancellation is honored between designs with an error wrapping
// core.ErrCancelled. If src implements Close(), it is closed on every
// exit path.
func (c *Census) Run(ctx context.Context, src Source) (*Report, error) {
	if cl, ok := src.(interface{ Close() }); ok {
		defer cl.Close()
	}
	span := c.tel.StartSpan("corpus.census")
	defer span.End()
	n := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrCancelled, err)
		}
		d, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		dr, err := c.Add(d)
		if err != nil {
			return nil, err
		}
		n++
		c.tel.Publish(obs.EventProgress, "corpus.design", float64(n),
			obs.KV("id", shortID(d.ID)), obs.KV("exposed", dr.Exposed),
			obs.KV("frames_scanned", dr.FramesScanned), obs.KV("dedup_hits", dr.DedupHits))
		if c.opt.Logf != nil {
			c.opt.Logf("corpus: design %d %s: %d matches, %d/%d frames scanned",
				n, shortID(d.ID), len(dr.Matches), dr.FramesScanned, dr.Frames)
		}
	}
	rep := c.Report()
	span.SetAttr("designs", rep.Designs)
	span.SetAttr("dedup_hits", rep.DedupHits)
	c.tel.Gauge("corpus.designs").Set(float64(rep.Designs))
	c.tel.Gauge("corpus.exposed").Set(float64(rep.Exposed))
	c.tel.Gauge("corpus.memo_entries").Set(float64(c.MemoLen()))
	return rep, nil
}

// Merge folds shard reports into one fleet-wide report: counters sum,
// per-design results concatenate sorted by ID (shards arrive in worker
// order, which is not deterministic), and the headline tallies are
// recounted from the merged results. Window reuse is per engine: only a
// re-add on the same worker reuses a design's previous windows.
func Merge(reps ...*Report) *Report {
	out := &Report{}
	for _, r := range reps {
		if r == nil {
			continue
		}
		if out.Expr == "" {
			out.Expr = r.Expr
		}
		out.Frames += r.Frames
		out.FramesScanned += r.FramesScanned
		out.DedupHits += r.DedupHits
		out.BytesTotal += r.BytesTotal
		out.Scan.Accumulate(r.Scan)
		out.Results = append(out.Results, r.Results...)
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].ID < out.Results[j].ID })
	out.tally()
	return out
}

// shortID trims a design ID for logs and events (victim fingerprints
// run long; the prefix is plenty to correlate).
func shortID(id string) string {
	if len(id) > 24 {
		return id[:24]
	}
	return id
}
