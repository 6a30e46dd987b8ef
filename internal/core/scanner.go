package core

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/obs"
)

// This file is the batch scan engine behind every bitstream search in
// the package. The paper prices one FINDLUT run at "< 4 s for a < 10 MB
// bitstream" (Section VI-B), but the Table II / Table VI reproductions
// and the attack itself need 21+ functions — paying that price once per
// function re-walks the identical bytes N times. The Scanner compiles
// the candidate catalogues of every requested function into one shared
// anchor index, walks the bitstream exactly once with the worker pool
// (testing the dual-output XOR predicate of Section VII-B in the same
// pass when asked), and demultiplexes hits per function. Per-function
// results are identical to scanning each function alone (and to
// FindLUTReference); the equivalence is pinned by the differential
// suite in scanner_test.go.

// ScanStats records what one Scan (or an accumulation of several) did:
// the observability layer behind the CLI -stats flag and the attack
// report.
type ScanStats struct {
	// Functions is the number of distinct LUT functions searched;
	// DualTargets the number of dual-output XOR windows.
	Functions   int
	DualTargets int
	// CandidatesCompiled counts the (table, order) byte patterns in the
	// shared anchor index.
	CandidatesCompiled int
	// CatalogueHits/CatalogueMisses count candidate catalogues served
	// from / missing the process-wide cache during compilation.
	CatalogueHits   int
	CatalogueMisses int
	// BytesScanned is the size of the scanned window; Passes the number
	// of full bitstream walks (always 1 per Scan — the point).
	BytesScanned int64
	Passes       int64
	// AnchorProbes counts probed byte positions; AnchorHits the probes
	// whose 16-bit sub-vector hit the candidate index; DeepCompares the
	// full four-sub-vector comparisons that followed.
	AnchorProbes int64
	AnchorHits   int64
	DeepCompares int64
	// DualProbes counts positions tested against the dual-XOR windows;
	// DualDecodes the positions that passed the 16-bit lane prefilter
	// and paid for an exact 32-bit lane-key check.
	DualProbes  int64
	DualDecodes int64
	// Workers is the size of the scan worker pool.
	Workers int
	// CompileTime covers catalogue compilation and index construction;
	// ScanTime the bitstream walk.
	CompileTime time.Duration
	ScanTime    time.Duration
}

// Accumulate folds another scan's counters into s (multi-scan flows such
// as the census-guided attack report one aggregate).
func (s *ScanStats) Accumulate(o ScanStats) {
	s.Functions += o.Functions
	s.DualTargets += o.DualTargets
	s.CandidatesCompiled += o.CandidatesCompiled
	s.CatalogueHits += o.CatalogueHits
	s.CatalogueMisses += o.CatalogueMisses
	s.BytesScanned += o.BytesScanned
	s.Passes += o.Passes
	s.AnchorProbes += o.AnchorProbes
	s.AnchorHits += o.AnchorHits
	s.DeepCompares += o.DeepCompares
	s.DualProbes += o.DualProbes
	s.DualDecodes += o.DualDecodes
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.CompileTime += o.CompileTime
	s.ScanTime += o.ScanTime
}

// ScanResult holds the demultiplexed output of one Scan.
type ScanResult struct {
	// Matches maps each AddFunction key to its match list, sorted by
	// index and identical to a scan of that function alone (nil when the
	// function never occurs).
	Matches map[string][]Match
	// DualHits maps each AddDualXOR key to the ascending byte indexes
	// satisfying the Section VII-B predicate inside that window.
	DualHits map[string][]int
	// Stats describes the single pass that produced everything above.
	Stats ScanStats
}

// fnTarget is one requested LUT function.
type fnTarget struct {
	key string
	fn  boolfn.TT
}

// dualTarget is one requested dual-output XOR window, in the raw
// (unnormalized) FindDualXOR convention: hi <= 0 means end of bitstream.
type dualTarget struct {
	key    string
	lo, hi int
}

// Scanner is a batch FINDLUT engine: any number of target functions and
// dual-XOR windows, one bitstream pass. A Scanner is built once per
// query set and is not safe for concurrent use (Scan lazily compiles
// and caches the anchor index on the scanner); Scan may be called
// repeatedly (e.g. over different bitstreams) and runs its worker pool
// internally.
type Scanner struct {
	opt   FindOptions
	fns   []fnTarget
	duals []dualTarget
	byKey map[string]int // key → index into fns
	// tel optionally traces the compile and walk phases of every Scan
	// (SetTelemetry; nil-safe, zero overhead when unset).
	tel *obs.Telemetry

	// Compiled anchor index, built by the first Scan and reused across
	// calls until AddFunction invalidates it. The multi-bitstream
	// serving scenario scans one query set over many images; rebuilding
	// the index per image is pure waste there. The index is compressed
	// sparse rows over the 16-bit anchor key: the refs of key k are
	// refs[start[k]:start[k+1]], so it costs one flat slice sized by
	// the candidates plus a fixed 256 KiB offset table.
	dirty      bool
	catalogues [][]candidate
	start      *[1<<16 + 1]uint32
	refs       []scanRef
	maxAnchor  int
	compiled   int // candidates held by the index
}

// NewScanner creates an empty batch scanner with the given search
// options (shared by every added function).
func NewScanner(opt FindOptions) *Scanner {
	return &Scanner{opt: opt, byKey: map[string]int{}}
}

// SetTelemetry attaches a telemetry handle: each Scan then records a
// scan.pass span with scan.compile / scan.walk children plus per-worker
// scan.chunk spans. Returns the scanner for chaining.
func (s *Scanner) SetTelemetry(tel *obs.Telemetry) *Scanner {
	s.tel = tel
	return s
}

// AddFunction registers f under key. Re-adding an existing key replaces
// its function. Returns the scanner for chaining.
func (s *Scanner) AddFunction(key string, f boolfn.TT) *Scanner {
	s.dirty = true
	if i, ok := s.byKey[key]; ok {
		s.fns[i].fn = f
		return s
	}
	s.byKey[key] = len(s.fns)
	s.fns = append(s.fns, fnTarget{key: key, fn: f})
	return s
}

// AddDualXOR registers a Section VII-B dual-output XOR search over the
// byte window [lo, hi] (hi <= 0 means the end of the bitstream), with
// FindDualXOR's exact semantics.
func (s *Scanner) AddDualXOR(key string, lo, hi int) *Scanner {
	s.duals = append(s.duals, dualTarget{key: key, lo: lo, hi: hi})
	return s
}

// scanRef points one anchor-index entry at its owning target: candidate
// ci of function fn. Candidate order within a function is the
// deterministic buildCandidates order, so marking (first candidate wins
// per index) is reproduced per function exactly as in a scan of that
// function alone.
type scanRef struct {
	fn int32
	ci int32
}

// fnHit is one verified match before demultiplexing.
type fnHit struct {
	fn    int32
	ci    int32
	index int32
}

// Scan walks b once and returns every requested result. The returned
// match lists are byte-identical to one single-function scan per
// function, and the dual hit lists to FindDualXOR over each window.
func (s *Scanner) Scan(b []byte) *ScanResult {
	pass := s.tel.StartSpan("scan.pass",
		obs.KV("functions", len(s.fns)), obs.KV("dual_targets", len(s.duals)))
	defer pass.End()
	res := &ScanResult{
		Matches:  make(map[string][]Match, len(s.fns)),
		DualHits: make(map[string][]int, len(s.duals)),
	}
	for _, t := range s.fns {
		res.Matches[t.key] = nil
	}
	for _, t := range s.duals {
		res.DualHits[t.key] = nil
	}
	res.Stats.Functions = len(s.fns)
	res.Stats.DualTargets = len(s.duals)

	span := (bitstream.SubVectors-1)*bitstream.SubVectorOffset + bitstream.SubVectorBytes
	limit := len(b) - span
	if limit < 0 {
		return res // too short to hold even one LUT
	}

	// --- Compile phase: one shared anchor index over all functions,
	// cached on the scanner and rebuilt only after AddFunction. ---
	compileSpan := s.tel.StartSpan("scan.compile")
	compileStart := time.Now()
	if s.dirty {
		s.recompile(&res.Stats)
	} else {
		// Whole index served from the scanner's own cache.
		res.Stats.CatalogueHits = len(s.fns)
	}
	res.Stats.CandidatesCompiled = s.compiled
	catalogues, maxAnchor := s.catalogues, s.maxAnchor
	res.Stats.CompileTime = time.Since(compileStart)
	compileSpan.SetAttr("candidates", res.Stats.CandidatesCompiled)
	compileSpan.End()

	// --- Window: partition exactly the scannable positions. An anchor
	// probe at position p can only yield a base index l = p − anchor·d in
	// [0, limit], so positions past limit + maxAnchor·d are dead; the
	// dual predicate tests base positions in [0, limit] directly. ---
	anchorEnd := 0
	if len(s.fns) > 0 {
		anchorEnd = limit + maxAnchor*bitstream.SubVectorOffset + 1
	}
	dualEnd := 0
	dualStart := limit + 1
	dualLos := make([]int, len(s.duals))
	dualHis := make([]int, len(s.duals))
	for i, t := range s.duals {
		lo, hi := t.lo, t.hi
		if hi <= 0 || hi > limit {
			hi = limit
		}
		if lo < 0 {
			lo = 0
		}
		dualLos[i], dualHis[i] = lo, hi
		if hi+1 > dualEnd {
			dualEnd = hi + 1
		}
		if lo < dualStart {
			dualStart = lo
		}
	}
	positions := anchorEnd
	if dualEnd > positions {
		positions = dualEnd
	}
	if positions == 0 {
		res.Stats.Passes = 1
		return res
	}

	workers := s.opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > positions {
		workers = positions // never spawn a goroutine with no positions
	}
	chunk := (positions-1)/workers + 1
	res.Stats.Workers = workers
	res.Stats.BytesScanned = int64(positions)
	res.Stats.Passes = 1

	var dual *dualLanes
	if len(s.duals) > 0 {
		dual = dualLaneTables()
	}
	walkSpan := s.tel.StartSpan("scan.walk",
		obs.KV("workers", workers), obs.KV("positions", positions))
	scanStart := time.Now()
	var mu sync.Mutex
	var allFn []fnHit
	var allDual []int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > positions {
			hi = positions
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cspan := s.tel.StartSpan("scan.chunk", obs.KV("lo", lo), obs.KV("hi", hi))
			defer cspan.End()
			var local []fnHit
			var localDual []int
			var st ScanStats
			start, refs := s.start, s.refs
			for p, end := lo, min(hi, anchorEnd); p < end; p++ {
				st.AnchorProbes++
				k := int(uint16(b[p]) | uint16(b[p+1])<<8)
				from, to := start[k], start[k+1]
				if from == to {
					continue
				}
				st.AnchorHits++
				for _, r := range refs[from:to] {
					c := &catalogues[r.fn][r.ci]
					l := p - c.anchor*bitstream.SubVectorOffset
					if l < 0 || l > limit {
						continue
					}
					st.DeepCompares++
					if matchAt(b, l, c) {
						local = append(local, fnHit{fn: r.fn, ci: r.ci, index: int32(l)})
					}
				}
			}
			if dl, dh := max(lo, dualStart), min(hi, dualEnd); dl < dh {
				localDual = dual.scan(b, dl, dh, &st)
			}
			mu.Lock()
			allFn = append(allFn, local...)
			allDual = append(allDual, localDual...)
			res.Stats.AnchorProbes += st.AnchorProbes
			res.Stats.AnchorHits += st.AnchorHits
			res.Stats.DeepCompares += st.DeepCompares
			res.Stats.DualProbes += st.DualProbes
			res.Stats.DualDecodes += st.DualDecodes
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	res.Stats.ScanTime = time.Since(scanStart)
	walkSpan.End()

	// --- Demultiplex. Per function: sort by (index, candidate) and keep
	// one match per index — Algorithm 1's marking, deterministically. ---
	sort.Slice(allFn, func(i, j int) bool {
		if allFn[i].fn != allFn[j].fn {
			return allFn[i].fn < allFn[j].fn
		}
		if allFn[i].index != allFn[j].index {
			return allFn[i].index < allFn[j].index
		}
		return allFn[i].ci < allFn[j].ci
	})
	for i, h := range allFn {
		if i > 0 && allFn[i-1].fn == h.fn && allFn[i-1].index == h.index {
			continue // marking: one match per index per function
		}
		c := &catalogues[h.fn][h.ci]
		key := s.fns[h.fn].key
		res.Matches[key] = append(res.Matches[key],
			Match{Index: int(h.index), Perm: c.perm, Order: c.order})
	}
	if len(allDual) > 0 {
		sort.Ints(allDual)
		for di, t := range s.duals {
			for _, h := range allDual {
				if h >= dualLos[di] && h <= dualHis[di] {
					res.DualHits[t.key] = append(res.DualHits[t.key], h)
				}
			}
		}
	}
	return res
}

// recompile rebuilds the scanner's cached anchor index from its current
// function set, folding catalogue-cache hit/miss counters into st. The
// index is filled by a counting sort on the anchor key: count each key
// into start, prefix-sum so start[k] ends bucket k, then place the refs
// back to front so each bucket keeps candidate order and start[k] ends
// up at its first ref.
func (s *Scanner) recompile(st *ScanStats) {
	s.catalogues = make([][]candidate, len(s.fns))
	s.refs = nil
	s.maxAnchor = 0
	s.compiled = 0
	for fi, t := range s.fns {
		cands, hit := catalogueFor(t.fn)
		s.catalogues[fi] = cands
		if hit {
			st.CatalogueHits++
		} else {
			st.CatalogueMisses++
		}
		s.compiled += len(cands)
	}
	s.dirty = false
	if len(s.fns) == 0 {
		s.start = nil
		return
	}
	if s.start == nil {
		s.start = new([1<<16 + 1]uint32)
	} else {
		*s.start = [1<<16 + 1]uint32{}
	}
	start := s.start
	for _, cands := range s.catalogues {
		for ci := range cands {
			c := &cands[ci]
			s.maxAnchor = max(s.maxAnchor, c.anchor)
			start[c.sub[c.anchor]]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	s.refs = make([]scanRef, s.compiled)
	for fi := len(s.catalogues) - 1; fi >= 0; fi-- {
		cands := s.catalogues[fi]
		for ci := len(cands) - 1; ci >= 0; ci-- {
			k := cands[ci].sub[cands[ci].anchor]
			start[k]--
			s.refs[start[k]] = scanRef{fn: int32(fi), ci: int32(ci)}
		}
	}
}

// The Section VII-B predicate as raw-byte lookups. Table I puts ¬a6 on
// bit 3 of the ξ index, so within every 16-bit sub-vector the high byte
// holds the O5 (a6 = 0) half and the low byte the O6 (a6 = 1) half, and
// both slice orders only permute whole sub-vectors. For byte lane
// j ∈ {0, 1} the four bytes b[l+j+q·d] therefore determine one half
// exactly: O6 for lane 0, O5 for lane 1. A position carries a 2-input XOR
// half under either order iff one lane's 4-byte key is the lane image of
// an XOR2 table; TestDualLaneSeparation pins the split exhaustively and
// findDualXORSerial (two full decodes per position) is the oracle.

// dualLanes holds the compiled lane keys: keys are the exact 32-bit
// lane keys and pre a one-bit prefilter over their first two bytes (bit
// p set when some key starts with prefix p). Lane 1's keys are the same
// set as lane 0's (TestDualLaneKeySetsEqual), so one list serves both.
type dualLanes struct {
	pre  [1 << 16 / 64]uint64
	keys []uint32
}

var (
	dualOnce sync.Once
	dualTabs *dualLanes
)

// dualLaneTables builds the lane tables on first use, so processes that
// never scan for dual-output XORs pay nothing for them. The keys are
// lane 0's: the O6 half of every XOR2 table under either slice order.
func dualLaneTables() *dualLanes {
	dualOnce.Do(func() {
		t := &dualLanes{}
		for _, x := range boolfn.Xor2Halves() {
			for _, order := range []bitstream.SliceType{bitstream.SliceL, bitstream.SliceM} {
				sub := bitstream.EncodeLUT(boolfn.TT(x)<<32, order)
				key := uint32(sub[0][0]) | uint32(sub[1][0])<<8 |
					uint32(sub[2][0])<<16 | uint32(sub[3][0])<<24
				if !slices.Contains(t.keys, key) {
					t.keys = append(t.keys, key)
					t.pre[uint16(key)>>6] |= 1 << (key & 63)
				}
			}
		}
		dualTabs = t
	})
	return dualTabs
}

// passes reports whether the lane starting at p has a key's prefix.
func (t *dualLanes) passes(b []byte, p int) bool {
	prefix := uint16(b[p]) | uint16(b[p+bitstream.SubVectorOffset])<<8
	return t.pre[prefix>>6]>>(prefix&63)&1 != 0
}

// scan evaluates the predicate at base positions [lo, hi), all at most
// limit, returning the hits in ascending order. DualDecodes counts the
// positions where either lane's prefix passed the 16-bit prefilter.
func (t *dualLanes) scan(b []byte, lo, hi int, st *ScanStats) []int {
	var hits []int
	st.DualProbes += int64(hi - lo)
	// Lane 1 at l is lane 0 at l+1: one prefilter load per position.
	cur := t.passes(b, lo)
	for l := lo; l < hi; l++ {
		next := t.passes(b, l+1)
		if cur || next {
			st.DualDecodes++
			if cur && t.exact(b, l) || next && t.exact(b, l+1) {
				hits = append(hits, l)
			}
		}
		cur = next
	}
	return hits
}

// exact reports whether the full lane key starting at p is an XOR2 lane
// key.
func (t *dualLanes) exact(b []byte, p int) bool {
	const d = bitstream.SubVectorOffset
	key := uint32(b[p]) | uint32(b[p+d])<<8 | uint32(b[p+2*d])<<16 | uint32(b[p+3*d])<<24
	return slices.Contains(t.keys, key)
}

// --- Process-wide candidate-catalogue cache -----------------------------

// The 720-permutation expansion of a target function into byte patterns
// depends only on the truth table. Repeated attacks over
// different bitstreams — the multi-bitstream serving scenario — reuse
// the compiled catalogues instead of re-expanding them per image.

var (
	catMu    sync.RWMutex
	catCache = map[boolfn.TT][]candidate{}
)

// catCacheMax bounds the memo; past the cap, catalogues are compiled but
// not retained (adversarial query streams must not grow memory without
// limit).
const catCacheMax = 1 << 12

// catalogueFor returns the compiled candidate catalogue for f, serving
// it from the process-wide cache when possible. The returned
// slice is shared and must be treated as read-only. The second result
// reports whether the catalogue came from the cache.
func catalogueFor(f boolfn.TT) ([]candidate, bool) {
	catMu.RLock()
	cands, ok := catCache[f]
	catMu.RUnlock()
	if ok {
		obs.Default().Counter("core.catalogue.hits").Inc()
		return cands, true
	}
	obs.Default().Counter("core.catalogue.misses").Inc()
	cands = buildCandidates(f)
	catMu.Lock()
	if prior, raced := catCache[f]; raced {
		cands = prior // keep one canonical slice per key
	} else if len(catCache) < catCacheMax {
		catCache[f] = cands
	}
	obs.Default().Gauge("core.catalogue.entries").Set(float64(len(catCache)))
	catMu.Unlock()
	return cands, false
}
