package snowbma

import (
	"context"
	"fmt"

	"snowbma/internal/corpus"
)

// Census at scale: the paper evaluates FINDLUT against one bitstream;
// the fleet-scale threat model triages thousands. CensusCorpus streams
// a corpus of designs through one shared scan engine — the candidate
// catalogue compiles once for the whole corpus — and reports which
// designs genuinely expose the W-XOR target and which the Section VII-A
// countermeasure covers.

// CorpusDesign is one corpus member: a stable ID plus the plaintext
// bitstream image to scan.
type CorpusDesign = corpus.Design

// CorpusSource streams designs into CensusCorpus. SeededCorpus and
// DirCorpus build the two standard sources; any implementation of
// Next() (CorpusDesign, bool, error) works.
type CorpusSource = corpus.Source

// CorpusReport is the deterministic corpus-wide vulnerability report:
// designs scanned, W-XOR exposure and countermeasure coverage counts,
// frame accounting, per-design results.
type CorpusReport = corpus.Report

// CorpusResult is one design's row of the report.
type CorpusResult = corpus.DesignResult

// SeededCorpus streams n synthesized designs derived deterministically
// from a master seed: every (seed, index) pair fixes one design's key,
// placement and padding, and every fourth design carries the
// countermeasure — so one corpus measures coverage alongside exposure.
func SeededCorpus(n int, seed int64) CorpusSource {
	return corpus.NewSeeded(corpus.SeedOptions{Designs: n, Seed: seed})
}

// DirCorpus streams every regular file of a directory as one design, in
// sorted name order. Encrypted images are rejected — the census scans
// plaintext bytes.
func DirCorpus(dir string) (CorpusSource, error) {
	src, err := corpus.NewDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snowbma: %w", err)
	}
	return src, nil
}

// CensusCorpus runs the census-at-scale pass: every design of src is
// scanned for the W-XOR target by one shared engine and classified by
// its extracted-LUT census. Options: WithParallel (scan worker pool),
// WithTelemetry (per-design progress events and the census span),
// WithLogf. Cancelling ctx stops between designs with an error wrapping
// ErrCancelled.
func CensusCorpus(ctx context.Context, src CorpusSource, opts ...Option) (*CorpusReport, error) {
	o := buildOptions(opts)
	cen, err := corpus.New(corpus.Options{
		Parallel: o.parallel,
		Tel:      o.tel,
		Logf:     o.logf,
	})
	if err != nil {
		return nil, fmt.Errorf("snowbma: %w", err)
	}
	return cen.Run(ctx, src)
}
