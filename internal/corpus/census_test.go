package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/core"
)

// corpusFixture synthesizes a seeded corpus once per test binary: the
// differential suite, the incremental suite and the smoke all read the
// same 50 designs.
var (
	fixOnce    sync.Once
	fixDesigns []Design
	fixErr     error
)

const (
	fixtureSeed    = 1701
	fixtureDesigns = 50
)

func fixture(t testing.TB) []Design {
	fixOnce.Do(func() {
		src := NewSeeded(SeedOptions{Designs: fixtureDesigns, Seed: fixtureSeed})
		defer src.Close()
		for {
			d, ok, err := src.Next()
			if err != nil {
				fixErr = err
				return
			}
			if !ok {
				return
			}
			fixDesigns = append(fixDesigns, d)
		}
	})
	if fixErr != nil {
		t.Fatalf("corpus fixture: %v", fixErr)
	}
	if len(fixDesigns) != fixtureDesigns {
		t.Fatalf("corpus fixture: got %d designs, want %d", len(fixDesigns), fixtureDesigns)
	}
	return fixDesigns
}

func runCensus(t testing.TB, designs []Design, opt Options) *Report {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		if _, err := c.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return c.Report()
}

// normalizeReport zeroes the wall-clock and pool-width fields so two
// runs of the same corpus compare byte-identical.
func normalizeReport(rep *Report) {
	rep.Scan.CompileTime = 0
	rep.Scan.ScanTime = 0
	rep.Scan.Workers = 0
	rep.Scan.CatalogueHits = 0
	rep.Scan.CatalogueMisses = 0
}

// TestCorpusDifferential pins the census over the seeded 50-design
// corpus: default == NoDedup == per-design sequential FindLUT +
// FindDualXOR, match for match.
func TestCorpusDifferential(t *testing.T) {
	designs := fixture(t)
	f, err := boolfn.ParseAuto(DefaultTargetExpr)
	if err != nil {
		t.Fatal(err)
	}

	on := runCensus(t, designs, Options{})
	off := runCensus(t, designs, Options{NoDedup: true})

	if on.Designs != len(designs) || off.Designs != len(designs) {
		t.Fatalf("designs: default %d, NoDedup %d, want %d", on.Designs, off.Designs, len(designs))
	}
	for i, d := range designs {
		seqMatches := core.FindLUT(d.Image, f, core.FindOptions{})
		seq := make([]int, 0, len(seqMatches))
		for _, m := range seqMatches {
			seq = append(seq, m.Index)
		}
		seqDuals := core.FindDualXOR(d.Image, 0, 0)
		for _, rep := range []*Report{on, off} {
			dr := rep.Results[i]
			if dr.ID != d.ID {
				t.Fatalf("design %d: report ID %s, want %s", i, shortID(dr.ID), shortID(d.ID))
			}
			if !reflect.DeepEqual(dr.Matches, seq) && !(len(dr.Matches) == 0 && len(seq) == 0) {
				t.Errorf("design %d: census matches %v, sequential FindLUT %v", i, dr.Matches, seq)
			}
			if dr.DualHits != len(seqDuals) {
				t.Errorf("design %d: census dual hits %d, FindDualXOR %d", i, dr.DualHits, len(seqDuals))
			}
			wantLUTs := 32 // one genuine f8 instance per keystream bit
			if dr.Protected {
				wantLUTs = 0 // the countermeasure splits every one
			}
			if dr.TargetLUTs != wantLUTs || dr.Exposed != (wantLUTs > 0) {
				t.Errorf("design %d (protected=%v): %d target-class LUTs, exposed=%v, want %d",
					i, dr.Protected, dr.TargetLUTs, dr.Exposed, wantLUTs)
			}
		}
	}

	// The two census modes must agree on the whole report body, frame
	// accounting included: a first add is the same whole-image scan.
	nOn, nOff := *on, *off
	nOn.Scan, nOff.Scan = core.ScanStats{}, core.ScanStats{}
	onResults, offResults := nOn.Results, nOff.Results
	nOn.Results, nOff.Results = nil, nil
	if !reflect.DeepEqual(nOn, nOff) {
		t.Errorf("default and NoDedup headline reports diverge:\n on: %+v\noff: %+v", nOn, nOff)
	}
	for i := range onResults {
		a, b := onResults[i], offResults[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("design %d: default result %+v != NoDedup %+v", i, a, b)
		}
	}

	// A first add scans the whole image: every frame scanned, none
	// reused, on both paths.
	for _, rep := range []*Report{on, off} {
		if rep.FramesScanned != rep.Frames || rep.DedupHits != 0 {
			t.Errorf("first adds: %d of %d frames scanned, %d reused; want all scanned, none reused",
				rep.FramesScanned, rep.Frames, rep.DedupHits)
		}
	}
}

// TestCorpusDeterministic pins the report reproducibility the fleet
// merge depends on: two engines over the same corpus marshal to
// byte-identical JSON after timing normalization.
func TestCorpusDeterministic(t *testing.T) {
	designs := fixture(t)
	a := runCensus(t, designs, Options{})
	b := runCensus(t, designs, Options{})
	normalizeReport(a)
	normalizeReport(b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("two identical census runs produced different reports:\n%s\n%s", ja, jb)
	}
}

// TestCorpusIncrementalRescan edits one design and re-adds it under
// its ID. Each row pins how many windows the re-add scans and reuses,
// checks that the scanned ones are exactly the windows whose bytes
// changed, and compares the answer with a fresh census's first add of
// the edited image.
func TestCorpusIncrementalRescan(t *testing.T) {
	designs := fixture(t)
	base := designs[3].Image
	frames := (len(base) + ChunkBytes - 1) / ChunkBytes
	flip := func(offs ...int) func() []byte {
		return func() []byte {
			img := append([]byte(nil), base...)
			for _, off := range offs {
				img[off] ^= 0xA5
			}
			return img
		}
	}
	rows := []struct {
		name    string
		edit    func() []byte
		noDedup bool
		// scanned is the FramesScanned the re-add must report; every
		// other window is reused.
		scanned int
	}{
		// Past the overlap: the previous window ends chunkOverlap bytes
		// into this chunk, so only this chunk's window changes.
		{"flip past the overlap", flip(40*ChunkBytes + chunkOverlap + 20), false, 1},
		// Inside the overlap: the previous window reads the byte too.
		{"flip inside the overlap", flip(40*ChunkBytes + 10), false, 2},
		{"two frames flipped", flip(40*ChunkBytes+chunkOverlap+20, 90*ChunkBytes+chunkOverlap+20), false, 2},
		{"identical", flip(), false, 0},
		// 100 chunks and 37 bytes: windows 99 and 100 now run into the
		// new end.
		{"truncated off the grid", func() []byte { return append([]byte(nil), base[:100*ChunkBytes+37]...) }, false, 2},
		// The two old windows that ran into the end grow.
		{"extended", func() []byte { return append(append([]byte(nil), base...), 1, 2, 3, 4, 5) }, false, 2},
		// Placement and padding differ, so no window lines up.
		{"another design's image", func() []byte { return append([]byte(nil), designs[5].Image...) }, false,
			(len(designs[5].Image) + ChunkBytes - 1) / ChunkBytes},
		{"NoDedup", flip(40*ChunkBytes + chunkOverlap + 20), true, frames},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, err := New(Options{NoDedup: row.noDedup})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range designs[:8] {
				if _, err := c.Add(d); err != nil {
					t.Fatal(err)
				}
			}
			scannedBefore := c.Report().Scan.BytesScanned
			mod := row.edit()
			dr, err := c.Add(Design{ID: designs[3].ID, Image: mod, Protected: designs[3].Protected})
			if err != nil {
				t.Fatal(err)
			}
			if dr.Rescans != 1 {
				t.Errorf("rescans = %d, want 1", dr.Rescans)
			}
			if dr.FramesScanned != row.scanned || dr.DedupHits != dr.Frames-row.scanned {
				t.Errorf("re-add scanned %d and reused %d of %d windows, want %d scanned",
					dr.FramesScanned, dr.DedupHits, dr.Frames, row.scanned)
			}
			if !row.noDedup {
				if dirty := dirtyWindows(base, mod); dirty != row.scanned {
					t.Errorf("row pins %d scanned windows, but %d windows changed bytes", row.scanned, dirty)
				}
				// ScanStats must account only the rescanned windows.
				maxWindow := int64(ChunkBytes + chunkOverlap)
				if delta := c.Report().Scan.BytesScanned - scannedBefore; delta > int64(row.scanned)*maxWindow {
					t.Errorf("re-add scanned %d bytes, want <= %d (%d windows)", delta, int64(row.scanned)*maxWindow, row.scanned)
				}
			}

			// Ground truth: a fresh census's first add of the edited image.
			want := runCensus(t, []Design{{ID: "mod", Image: mod}}, Options{}).Results[0]
			if !reflect.DeepEqual(dr.Matches, want.Matches) {
				t.Errorf("re-add matches %v != first-add matches %v", dr.Matches, want.Matches)
			}
			if dr.DualHits != want.DualHits || dr.TargetLUTs != want.TargetLUTs {
				t.Errorf("re-add dual hits %d, target LUTs %d; first add %d, %d",
					dr.DualHits, dr.TargetLUTs, want.DualHits, want.TargetLUTs)
			}

			// The report holds the design once, with the updated result.
			if rep := c.Report(); rep.Designs != 8 || !reflect.DeepEqual(rep.Results[3], dr) {
				t.Errorf("report holds %d designs and row %+v after the re-add, want 8 and %+v", rep.Designs, rep.Results[3], dr)
			}
		})
	}
}

// dirtyWindows counts the chunk windows of img whose bytes differ from
// the same window of old (or that old does not have): the fewest a
// re-add can scan.
func dirtyWindows(old, img []byte) int {
	n := 0
	for start := 0; start < len(img); start += ChunkBytes {
		if start >= len(old) || !bytes.Equal(window(old, start), window(img, start)) {
			n++
		}
	}
	return n
}

// TestCorpusMerge pins the fleet-side shard merge: splitting the corpus
// into shards and merging their reports reproduces the single-engine
// report, frame accounting included (first adds scan every frame on any
// engine).
func TestCorpusMerge(t *testing.T) {
	designs := fixture(t)
	whole := runCensus(t, designs, Options{})
	a := runCensus(t, designs[:17], Options{})
	b := runCensus(t, designs[17:33], Options{})
	cc := runCensus(t, designs[33:], Options{})
	merged := Merge(a, b, cc)
	if merged.Designs != whole.Designs || merged.Exposed != whole.Exposed ||
		merged.Covered != whole.Covered || merged.Protected != whole.Protected ||
		merged.Matches != whole.Matches || merged.DualHits != whole.DualHits ||
		merged.BytesTotal != whole.BytesTotal || merged.Frames != whole.Frames ||
		merged.FramesScanned != whole.FramesScanned || merged.DedupHits != whole.DedupHits {
		t.Errorf("merged headline diverges from whole-corpus run:\nmerged: %+v\n whole: %+v",
			merged, whole)
	}
	// Merged results are ID-sorted; the whole run is stream-ordered.
	// Compare as sets keyed by ID.
	byID := map[string]DesignResult{}
	for _, dr := range whole.Results {
		byID[dr.ID] = dr
	}
	for _, dr := range merged.Results {
		w, ok := byID[dr.ID]
		if !ok {
			t.Fatalf("merged report holds unknown design %s", shortID(dr.ID))
		}
		if !reflect.DeepEqual(dr, w) {
			t.Errorf("design %s: merged %+v != whole %+v", shortID(dr.ID), dr, w)
		}
	}
}

// TestCorpusCensusSmoke is the census-at-scale invariant check behind
// `make census-smoke`: a seeded 200-design corpus streamed end to end
// (synthesis pipeline included) under the race detector, with the
// report invariants asserted.
func TestCorpusCensusSmoke(t *testing.T) {
	const n = 200
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background(), NewSeeded(SeedOptions{Designs: n, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Designs != n {
		t.Fatalf("designs = %d, want %d", rep.Designs, n)
	}
	if rep.Exposed+rep.Covered != rep.Designs {
		t.Errorf("exposed %d + covered %d != designs %d", rep.Exposed, rep.Covered, rep.Designs)
	}
	if rep.Protected != n/4 {
		t.Errorf("protected = %d, want %d (every fourth design)", rep.Protected, n/4)
	}
	if rep.Exposed != n-n/4 {
		t.Errorf("exposed = %d, want every unprotected design (%d)", rep.Exposed, n-n/4)
	}
	if rep.Covered != rep.Protected {
		t.Errorf("covered %d != protected %d: the countermeasure must hide the target class exactly",
			rep.Covered, rep.Protected)
	}
	if rep.FramesScanned != rep.Frames || rep.DedupHits != 0 || rep.DedupRate != 0 {
		t.Errorf("distinct IDs: %d of %d frames scanned, %d reused; want all scanned, none reused",
			rep.FramesScanned, rep.Frames, rep.DedupHits)
	}
	if got := int64(0); true {
		for _, dr := range rep.Results {
			got += int64(dr.Bytes)
		}
		if got != rep.BytesTotal {
			t.Errorf("bytes_total %d != sum of per-design bytes %d", rep.BytesTotal, got)
		}
	}
	t.Logf("census: %d designs, %d exposed, %d covered (%d protected), %d/%d frames scanned",
		rep.Designs, rep.Exposed, rep.Covered, rep.Protected, rep.FramesScanned, rep.Frames)
}

// TestClassifyMatchesPClassCanon pins the fixed class set against the
// definition it replaces: over the seeded 200-design corpus, every
// design's TargetLUTs is the number of its extracted LUTs whose
// P-class representative is the target's.
func TestClassifyMatchesPClassCanon(t *testing.T) {
	f, err := boolfn.ParseAuto(DefaultTargetExpr)
	if err != nil {
		t.Fatal(err)
	}
	canon := boolfn.PClassCanon(f)
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSeeded(SeedOptions{Designs: 200, Seed: 42})
	defer src.Close()
	memo := map[boolfn.TT]bool{} // designs share most tables
	n := 0
	for ; ; n++ {
		d, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		dr, err := c.Add(d)
		if err != nil {
			t.Fatal(err)
		}
		luts, err := bitstream.ExtractLUTs(d.Image)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, l := range luts {
			inClass, ok := memo[l.Init]
			if !ok {
				inClass = boolfn.PClassCanon(l.Init) == canon
				memo[l.Init] = inClass
			}
			if inClass {
				want++
			}
		}
		if dr.TargetLUTs != want {
			t.Errorf("design %d: TargetLUTs %d, PClassCanon count %d", n, dr.TargetLUTs, want)
		}
	}
	if n != 200 {
		t.Fatalf("corpus yielded %d designs, want 200", n)
	}
}

// TestCorpusCancellation pins the Run contract: a cancelled context
// stops the census between designs with core.ErrCancelled.
func TestCorpusCancellation(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, NewSeeded(SeedOptions{Designs: 4, Seed: 1})); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled census error = %v, want core.ErrCancelled", err)
	}
}

// TestDirSource ingests a directory corpus: sorted order, stable IDs,
// empty files rejected.
func TestDirSource(t *testing.T) {
	designs := fixture(t)
	dir := t.TempDir()
	for i, name := range []string{"b.bit", "a.bit", "c.bit"} {
		if err := os.WriteFile(filepath.Join(dir, name), designs[i].Image, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for {
		d, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ids = append(ids, d.ID)
	}
	if !reflect.DeepEqual(ids, []string{"a.bit", "b.bit", "c.bit"}) {
		t.Fatalf("dir source order %v, want sorted names", ids)
	}

	if err := os.WriteFile(filepath.Join(dir, "empty.bit"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err = NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := src.Next()
		if err != nil {
			return // the empty file surfaced as an error, as required
		}
		if !ok {
			t.Fatal("empty bitstream file passed the directory source")
		}
	}
}

// TestSeededSourceDeterminism: two sources with the same options stream
// identical corpora, and an Indices subset selects exactly those
// designs.
func TestSeededSourceDeterminism(t *testing.T) {
	drain := func(src *SeededSource) []Design {
		defer src.Close()
		var out []Design
		for {
			d, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a := drain(NewSeeded(SeedOptions{Designs: 6, Seed: 9}))
	b := drain(NewSeeded(SeedOptions{Designs: 6, Seed: 9}))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identically-seeded sources streamed different corpora")
	}
	sub := drain(NewSeeded(SeedOptions{Designs: 6, Seed: 9, Indices: []int{4, 1}}))
	if len(sub) != 2 || sub[0].ID != a[4].ID || sub[1].ID != a[1].ID {
		t.Fatal("Indices subset did not select the requested designs in order")
	}
	if a[3].ID == a[2].ID {
		t.Fatal("adjacent designs share a fingerprint — the seeded variation is degenerate")
	}
}
