package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"snowbma"
	"snowbma/internal/report"
)

// corpusOpts carries the census -corpus flag values out of cmdCensus.
type corpusOpts struct {
	n         int
	seed      int64
	dir       string
	parallel  int
	jsonOut   string
	stats     bool
	tracePath string
}

// runCensusCorpus is the census-at-scale mode of the census subcommand:
// it streams a corpus — n seeded synthesized designs, or every bitstream
// file of -dir — through one shared scan engine and prints the
// fleet-wide vulnerability report.
func runCensusCorpus(fs *flag.FlagSet, o corpusOpts) error {
	if o.dir == "" {
		if o.n < 1 {
			return fmt.Errorf("census: -n must be at least 1, got %d", o.n)
		}
		if err := validateSeed("census", o.seed); err != nil {
			return err
		}
	}
	if o.parallel < 0 {
		return fmt.Errorf("census: -parallel must be non-negative, got %d (0 means all CPUs)", o.parallel)
	}
	traceFile, err := openTrace("census", fs, o.tracePath)
	if err != nil {
		return err
	}

	var src snowbma.CorpusSource
	if o.dir != "" {
		if src, err = snowbma.DirCorpus(o.dir); err != nil {
			return err
		}
	} else {
		src = snowbma.SeededCorpus(o.n, o.seed)
	}

	opts := []snowbma.Option{snowbma.WithParallel(o.parallel)}
	var tel *snowbma.Telemetry
	if traceFile != nil {
		tel = snowbma.NewTelemetry()
		opts = append(opts, snowbma.WithTelemetry(tel))
	}
	rep, err := snowbma.CensusCorpus(context.Background(), src, opts...)
	if err != nil {
		return err
	}
	if terr := writeTrace(traceFile, tel); terr != nil {
		return terr
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("census: encoding corpus report: %w", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(o.jsonOut, data, 0o644); err != nil {
			return fmt.Errorf("census: writing corpus report: %w", err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", o.jsonOut, len(data))
	}
	fmt.Print(report.Corpus(rep))
	if o.stats {
		fmt.Print(report.ScanStats(rep.Scan))
	}
	return nil
}
