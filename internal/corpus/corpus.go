// Package corpus is the census-at-scale subsystem: it streams thousands
// of distinct synthesized designs through a single shared core.Scanner
// with one immutable candidate catalogue and produces a deterministic
// fleet-wide vulnerability report — how many designs expose the W-XOR
// target and how many the countermeasure covers. A design's first add
// scans its whole image; re-adding its ID with a small change (a
// patched bitstream) rescans only the frame windows whose bytes
// changed, found from per-window digests of that design's last add.
//
// The paper evaluates FINDLUT against a single bitstream; the threat
// model is fleet-scale (ROADMAP item 3): an attacker triages a large
// design population before committing an edit. The Scanner's cached
// compiled anchor index (built in PR 6 for exactly the
// scan-one-query-set-over-many-images shape) is what makes the corpus
// pass cheap: the catalogue compiles once and every design pays only
// the walk.
//
// Two Source implementations feed the engine: a seeded generator over
// victim.Config variations (NewSeeded; the per-index config derivation
// SeededConfig is exported so the fleet coordinator can shard a corpus
// by design fingerprint without synthesizing anything), and a directory
// ingester (NewDir) for externally captured bitstreams.
package corpus

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"snowbma/internal/bitstream"
	"snowbma/internal/snow3g"
	"snowbma/internal/victim"
)

// Design is one corpus member: a stable identity plus the plaintext
// bitstream image to scan.
type Design struct {
	// ID is the design's stable identity — the victim fingerprint for
	// generated designs, the file name for ingested ones. Re-adding a
	// design under the same ID is an incremental re-scan (a delta).
	ID string
	// Image is the plaintext bitstream. The census scans raw bytes, so
	// encrypted images must be unsealed before ingestion.
	Image []byte
	// Protected marks designs built with the Section VII-A
	// countermeasure, when the source knows (generated corpora do).
	Protected bool
}

// Source streams a corpus of designs. Next returns ok=false after the
// last design; a non-nil error aborts the census. Sources that hold
// resources may additionally implement Close(), which the census calls
// when it finishes (or aborts).
type Source interface {
	Next() (d Design, ok bool, err error)
}

// DefaultWorkers caps the seeded source's synthesis worker pool when
// SeedOptions.Workers is zero: synthesis is CPU-bound, so the pool is
// min(NumCPU, DefaultWorkers).
const DefaultWorkers = 4

// SeedOptions parameterizes the seeded corpus generator.
type SeedOptions struct {
	// Designs is the corpus size; design indexes run [0, Designs) unless
	// Indices narrows them.
	Designs int
	// Seed is the master seed: (Seed, index) fully determines each
	// design, so two sources with the same options stream byte-identical
	// corpora.
	Seed int64
	// Indices, when non-empty, selects an explicit subset of design
	// indexes — the fleet coordinator's shard unit.
	Indices []int
	// Workers bounds the synthesis worker pool (0 = min(NumCPU,
	// DefaultWorkers)). Delivery order is index order regardless.
	Workers int
}

// mix derives a per-design rng seed from (master seed, index) with a
// splitmix-style multiply, so neighboring indexes decorrelate.
func mix(seed int64, i int) int64 {
	return int64(uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(i)+1)*0xBF58476D1CE4E5B9)
}

// SeededConfig is the deterministic design derivation: the victim
// config of design i under a master seed. Every fourth design carries
// the countermeasure, so a corpus measures coverage alongside exposure.
// Exported because the fleet coordinator shards a corpus by
// cfg.Fingerprint() — routing and synthesis must derive the same design
// from the same (seed, index).
func SeededConfig(seed int64, i int) victim.Config {
	rng := rand.New(rand.NewSource(mix(seed, i)))
	return victim.Config{
		Key:       snow3g.Key{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()},
		Seed:      int64(rng.Uint32()) + 1, // placement seed; +1 keeps it off the 0="default" path
		PadFrames: rng.Intn(4),
		Protected: i%4 == 3,
	}
}

// item is one delivery of the seeded pipeline.
type item struct {
	d   Design
	err error
}

// SeededSource generates designs from seeded victim.Config variations
// through a bounded synthesis worker pool, delivering them in index
// order. It is single-consumer; call Close to release the pipeline if
// the stream is abandoned early.
type SeededSource struct {
	out  chan item
	stop chan struct{}
	once sync.Once
}

// NewSeeded starts the generation pipeline. Synthesis of up to
// opt.Workers designs overlaps the consumer's scanning; completed
// designs are held back until their turn, so the stream order — and
// therefore the census report — is deterministic.
func NewSeeded(opt SeedOptions) *SeededSource {
	indices := opt.Indices
	if len(indices) == 0 {
		indices = make([]int, opt.Designs)
		for i := range indices {
			indices[i] = i
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
		if workers > DefaultWorkers {
			workers = DefaultWorkers
		}
	}
	s := &SeededSource{out: make(chan item), stop: make(chan struct{})}
	// pend carries one future per design in index order; its capacity is
	// the synthesis window, bounding in-flight builds AND finished images
	// waiting to be consumed (each future's buffer lets the builder exit
	// without a rendezvous).
	pend := make(chan chan item, workers)
	go func() {
		defer close(pend)
		for _, idx := range indices {
			fut := make(chan item, 1)
			select {
			case pend <- fut:
			case <-s.stop:
				return
			}
			go func(idx int, fut chan<- item) {
				cfg := SeededConfig(opt.Seed, idx)
				v, err := victim.Build(cfg)
				it := item{err: err}
				if err == nil {
					it.d = Design{ID: cfg.Fingerprint(), Image: v.Image, Protected: cfg.Protected}
				}
				fut <- it
			}(idx, fut)
		}
	}()
	go func() {
		defer close(s.out)
		for fut := range pend {
			select {
			case s.out <- <-fut:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Next returns the next design in index order.
func (s *SeededSource) Next() (Design, bool, error) {
	it, ok := <-s.out
	if !ok {
		return Design{}, false, nil
	}
	if it.err != nil {
		return Design{}, false, it.err
	}
	return it.d, true, nil
}

// Close releases the pipeline; pending builds finish and are dropped.
// Safe to call more than once.
func (s *SeededSource) Close() { s.once.Do(func() { close(s.stop) }) }

// ErrEncrypted is returned (wrapped) when a directory source meets a
// sealed image: the census scans plaintext bytes, so encrypted
// bitstreams must be unsealed (or attacked via the decryption oracle)
// before ingestion.
var ErrEncrypted = errors.New("corpus: encrypted bitstream")

// DirSource ingests every regular file of a directory as one design,
// in sorted name order. File names are the design IDs.
type DirSource struct {
	dir   string
	names []string
	pos   int
}

// NewDir lists the directory eagerly (so a bad path fails at
// construction) but reads each image lazily at Next, keeping one design
// resident at a time.
func NewDir(dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s := &DirSource{dir: dir}
	for _, e := range entries {
		if e.Type().IsRegular() {
			s.names = append(s.names, e.Name())
		}
	}
	sort.Strings(s.names)
	if len(s.names) == 0 {
		return nil, fmt.Errorf("corpus: %s holds no regular files", dir)
	}
	return s, nil
}

// Next reads the next file through bitstream.ReadImageFile. Empty,
// oversized (bitstream.ErrImageTooLarge) and sealed images are errors.
func (s *DirSource) Next() (Design, bool, error) {
	if s.pos >= len(s.names) {
		return Design{}, false, nil
	}
	name := s.names[s.pos]
	s.pos++
	b, err := bitstream.ReadImageFile(filepath.Join(s.dir, name))
	if err != nil {
		return Design{}, false, fmt.Errorf("corpus: %w", err)
	}
	if bitstream.IsEncrypted(b) {
		return Design{}, false, fmt.Errorf("%w: %s", ErrEncrypted, name)
	}
	return Design{ID: name, Image: b}, true, nil
}
