package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		fixDesigns, fixErr = drain(src)
	})
	if fixErr != nil {
		t.Fatalf("corpus fixture: %v", fixErr)
	}
	if len(fixDesigns) != fixtureDesigns {
		t.Fatalf("corpus fixture: got %d designs, want %d", len(fixDesigns), fixtureDesigns)
	}
	return fixDesigns
}

// drain reads src to its end or its first error.
func drain(src Source) ([]Design, error) {
	var out []Design
	for {
		d, ok, err := src.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, d)
	}
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

// The census harness. Every way the census answers for a design is one
// value of the implementation axis censusImpls, next to the oracle the
// census replaced; every row (censusCase) runs on every value, and all
// values must report the same result for each design. Each value runs
// through its own entry point, so the oracle never calls into the
// census it checks.

// censusImpls is the implementation axis. Each value checks its own
// add accounting and returns the results with that accounting cleared.
var censusImpls = []censusImpl{
	// The production path: the row's designs re-added over the prior
	// ones, each scanning only the windows whose bytes changed.
	{"re-add", func(t testing.TB, c *censusCase) []DesignResult {
		cen, priorBytes, out := addAll(t, c, Options{})
		// Each ID holds the report row of its first add.
		pos := map[string]int{}
		for _, d := range slices.Concat(c.prior, c.designs) {
			if _, ok := pos[d.ID]; !ok {
				pos[d.ID] = len(pos)
			}
		}
		before := map[string][]byte{}
		for _, d := range c.prior {
			before[d.ID] = d.Image
		}
		rep := cen.Report()
		if rep.Designs != len(pos) || len(rep.Results) != len(pos) {
			t.Fatalf("report holds %d designs in %d rows, want %d", rep.Designs, len(rep.Results), len(pos))
		}
		windows := 0
		for i, d := range c.designs {
			dr := out[i]
			scanned := dr.Frames
			if old, ok := before[d.ID]; ok {
				scanned = dirtyWindows(old, d.Image)
			}
			windows += scanned
			if i < len(c.scanned) && c.scanned[i] != scanned {
				t.Errorf("%s: row pins %d scanned windows, but %d windows changed bytes", d.ID, c.scanned[i], scanned)
			}
			if dr.FramesScanned != scanned || dr.DedupHits != dr.Frames-scanned {
				t.Errorf("%s: add scanned %d and reused %d of %d windows, want %d scanned",
					d.ID, dr.FramesScanned, dr.DedupHits, dr.Frames, scanned)
			}
			// A re-add replaces its ID's row in place.
			if got := rep.Results[pos[d.ID]]; !reflect.DeepEqual(got, dr) {
				t.Errorf("%s: report row %d holds %+v, the add returned %+v", d.ID, pos[d.ID], got, dr)
			}
			before[d.ID] = d.Image
		}
		// ScanStats must account only the scanned windows.
		if delta, most := rep.Scan.BytesScanned-priorBytes, int64(windows)*(ChunkBytes+chunkOverlap); delta > most {
			t.Errorf("adds scanned %d bytes, want <= %d (%d windows)", delta, most, windows)
		}
		return clearAccounting(out)
	}},
	// Every add, re-adds included, scans the whole image.
	{"no-dedup", func(t testing.TB, c *censusCase) []DesignResult {
		_, _, out := addAll(t, c, Options{NoDedup: true})
		return wholeScans(t, out)
	}},
	// A census that holds none of the prior designs: every add is a
	// first add.
	{"first-add", func(t testing.TB, c *censusCase) []DesignResult {
		_, _, out := addAll(t, &censusCase{designs: c.designs}, Options{})
		return wholeScans(t, out)
	}},
	// The definitions the census implements: a one-function Scanner and
	// FindDualXOR over the whole image, and the extracted LUTs whose
	// P-class representative is the target's.
	{"definition", func(t testing.TB, c *censusCase) []DesignResult {
		f, err := boolfn.ParseAuto(DefaultTargetExpr)
		if err != nil {
			t.Fatal(err)
		}
		var out []DesignResult
		for _, d := range c.designs {
			dr := DesignResult{ID: d.ID, Protected: d.Protected, Bytes: len(d.Image),
				Frames: (len(d.Image) + ChunkBytes - 1) / ChunkBytes}
			for _, m := range core.NewScanner(core.FindOptions{}).AddFunction("f", f).Scan(d.Image).Matches["f"] {
				dr.Matches = append(dr.Matches, m.Index)
			}
			dr.DualHits = len(core.FindDualXOR(d.Image, 0, 0))
			dr.TargetLUTs = pClassCount(d.Image, f)
			dr.Exposed = dr.TargetLUTs > 0 || dr.TargetLUTs < 0 && len(dr.Matches) > 0
			out = append(out, dr)
		}
		return out
	}},
}

type censusImpl struct {
	name string
	run  func(t testing.TB, c *censusCase) []DesignResult
}

// censusCase is one harness row: prior designs added first, then the
// designs whose results are compared, under distinct IDs. A design
// sharing an ID with a prior one is a re-add. scanned, when set, pins
// how many windows the add of each design must scan.
type censusCase struct {
	name    string
	prior   []Design
	designs []Design
	scanned []int
}

// runCensusHarness runs each row as a subtest on the whole axis.
func runCensusHarness(t *testing.T, cases ...*censusCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkCensus(t, c) })
	}
}

// checkCensus runs one row on every implementation, requires them to
// agree, and returns the first one's results.
func checkCensus(t testing.TB, c *censusCase) []DesignResult {
	t.Helper()
	var ref []DesignResult
	for _, impl := range censusImpls {
		got := impl.run(t, c)
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("%s design %d: %s %+v != %s %+v", c.name, i, impl.name, got[i], censusImpls[0].name, ref[i])
			}
		}
	}
	return ref
}

// addAll adds the row's prior designs, then its designs, to one census,
// and returns it, the bytes the prior adds scanned and the designs'
// results. Each design's Rescans must count the earlier adds of its ID.
func addAll(t testing.TB, c *censusCase, opt Options) (*Census, int64, []DesignResult) {
	t.Helper()
	cen, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	adds := map[string]int{}
	for _, d := range c.prior {
		if _, err := cen.Add(d); err != nil {
			t.Fatal(err)
		}
		adds[d.ID]++
	}
	priorBytes := cen.Report().Scan.BytesScanned
	out := make([]DesignResult, 0, len(c.designs))
	for _, d := range c.designs {
		dr, err := cen.Add(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := adds[d.ID]; dr.Rescans != want {
			t.Errorf("%s: rescans = %d, want %d", d.ID, dr.Rescans, want)
		}
		adds[d.ID]++
		out = append(out, dr)
	}
	return cen, priorBytes, out
}

// clearAccounting zeroes what differs by path: how an add reached its
// answer, not the answer.
func clearAccounting(out []DesignResult) []DesignResult {
	for i := range out {
		out[i].FramesScanned, out[i].DedupHits, out[i].Rescans = 0, 0, 0
	}
	return out
}

// wholeScans requires every add to have scanned its whole image, then
// clears the accounting.
func wholeScans(t testing.TB, out []DesignResult) []DesignResult {
	t.Helper()
	for _, dr := range out {
		if dr.FramesScanned != dr.Frames || dr.DedupHits != 0 {
			t.Errorf("%s: add scanned %d of %d windows, reused %d; want a whole-image scan",
				dr.ID, dr.FramesScanned, dr.Frames, dr.DedupHits)
		}
	}
	return clearAccounting(out)
}

// pClassMemo caches P-class membership by table; designs share most.
var pClassMemo = map[boolfn.TT]bool{}

// pClassCount counts img's extracted LUTs in f's P-class, -1 when img
// does not parse as a full bitstream.
func pClassCount(img []byte, f boolfn.TT) int {
	luts, err := bitstream.ExtractLUTs(img)
	if err != nil {
		return -1
	}
	canon := boolfn.PClassCanon(f)
	n := 0
	for _, l := range luts {
		in, ok := pClassMemo[l.Init]
		if !ok {
			in = boolfn.PClassCanon(l.Init) == canon
			pClassMemo[l.Init] = in
		}
		if in {
			n++
		}
	}
	return n
}

// TestCorpusDifferential: a census harness row over the seeded
// 50-design corpus, each design re-added with one byte flipped at its
// own offset. Every unprotected design holds one genuine target LUT
// per keystream bit; the countermeasure splits every one.
func TestCorpusDifferential(t *testing.T) {
	designs := fixture(t)
	edited := make([]Design, len(designs))
	for i, d := range designs {
		img := append([]byte(nil), d.Image...)
		img[(i*7919*ChunkBytes/13)%len(img)] ^= 0x5A
		edited[i] = Design{ID: d.ID, Image: img, Protected: d.Protected}
	}
	res := checkCensus(t, &censusCase{name: "flipped corpus", prior: designs, designs: edited})
	for i, dr := range res {
		want := 32
		if dr.Protected {
			want = 0
		}
		if dr.TargetLUTs != want || dr.Exposed != (want > 0) {
			t.Errorf("design %d (protected=%v): %d target-class LUTs, exposed=%v, want %d",
				i, dr.Protected, dr.TargetLUTs, dr.Exposed, want)
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

// TestCorpusIncrementalRescan: census harness rows editing one design
// of an eight-design corpus and re-adding it under its ID. Each row
// pins how many windows the re-add scans.
func TestCorpusIncrementalRescan(t *testing.T) {
	designs := fixture(t)
	base := designs[3].Image
	flip := func(offs ...int) []byte {
		img := append([]byte(nil), base...)
		for _, off := range offs {
			img[off] ^= 0xA5
		}
		return img
	}
	row := func(name string, img []byte, scanned int) *censusCase {
		return &censusCase{name: name, prior: designs[:8], scanned: []int{scanned},
			designs: []Design{{ID: designs[3].ID, Image: img, Protected: designs[3].Protected}}}
	}
	runCensusHarness(t,
		// Past the overlap: the previous window ends chunkOverlap bytes
		// into this chunk, so only this chunk's window changes.
		row("flip past the overlap", flip(40*ChunkBytes+chunkOverlap+20), 1),
		// Inside the overlap: the previous window reads the byte too.
		row("flip inside the overlap", flip(40*ChunkBytes+10), 2),
		row("two frames flipped", flip(40*ChunkBytes+chunkOverlap+20, 90*ChunkBytes+chunkOverlap+20), 2),
		row("identical", flip(), 0),
		// 100 chunks and 37 bytes: windows 99 and 100 now run into the
		// new end.
		row("truncated off the grid", append([]byte(nil), base[:100*ChunkBytes+37]...), 2),
		// The two old windows that ran into the end grow.
		row("extended", append(append([]byte(nil), base...), 1, 2, 3, 4, 5), 2),
		// Placement and padding differ, so no window lines up.
		row("another design's image", append([]byte(nil), designs[5].Image...),
			(len(designs[5].Image)+ChunkBytes-1)/ChunkBytes),
	)
	// The no-dedup value's byte accounting: its re-add scans exactly the
	// bytes a first add of the edited image scans.
	t.Run("NoDedup", func(t *testing.T) {
		c := row("", flip(40*ChunkBytes+chunkOverlap+20), 1)
		cen, priorBytes, _ := addAll(t, c, Options{NoDedup: true})
		fresh, _, _ := addAll(t, &censusCase{designs: c.designs}, Options{})
		if got, want := cen.Report().Scan.BytesScanned-priorBytes, fresh.Report().Scan.BytesScanned; got != want {
			t.Errorf("NoDedup re-add scanned %d bytes, a first add scans %d", got, want)
		}
	})
}

// FuzzCorpusReadd is the census harness under fuzzing: one design of a
// three-design corpus re-added with bytes flipped (op 0), truncated
// (op 1) or extended (op 2) at a fuzzed offset.
func FuzzCorpusReadd(f *testing.F) {
	f.Add(uint8(0), uint32(40*ChunkBytes+10), []byte{0xA5})
	f.Add(uint8(0), uint32(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint32(100*ChunkBytes+37), []byte{})
	f.Add(uint8(2), uint32(0), []byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, op uint8, at uint32, data []byte) {
		designs := fixture(t)[:3]
		img := append([]byte(nil), designs[1].Image...)
		off := int(at % uint32(len(img)))
		switch op % 3 {
		case 0:
			for i, b := range data {
				img[(off+i)%len(img)] ^= b
			}
		case 1:
			img = img[:off+1]
		default:
			img = append(img, data...)
		}
		checkCensus(t, &censusCase{name: "fuzz", prior: designs,
			designs: []Design{{ID: designs[1].ID, Image: img, Protected: designs[1].Protected}}})
	})
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
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSeeded(SeedOptions{Designs: 200, Seed: 42})
	defer src.Close()
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
		if want := pClassCount(d.Image, f); dr.TargetLUTs != want {
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
	ds, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, d := range ds {
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
	if _, err := drain(src); err == nil {
		t.Fatal("empty bitstream file passed the directory source")
	}
}

// TestSeededSourceDeterminism: two sources with the same options stream
// identical corpora, and an Indices subset selects exactly those
// designs.
func TestSeededSourceDeterminism(t *testing.T) {
	seeded := func(opt SeedOptions) []Design {
		src := NewSeeded(opt)
		defer src.Close()
		out, err := drain(src)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := seeded(SeedOptions{Designs: 6, Seed: 9})
	b := seeded(SeedOptions{Designs: 6, Seed: 9})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identically-seeded sources streamed different corpora")
	}
	sub := seeded(SeedOptions{Designs: 6, Seed: 9, Indices: []int{4, 1}})
	if len(sub) != 2 || sub[0].ID != a[4].ID || sub[1].ID != a[1].ID {
		t.Fatal("Indices subset did not select the requested designs in order")
	}
	if a[3].ID == a[2].ID {
		t.Fatal("adjacent designs share a fingerprint — the seeded variation is degenerate")
	}
}
