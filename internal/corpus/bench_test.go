package corpus

import (
	"sync"
	"testing"

	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/snow3g"
	"snowbma/internal/victim"
)

// benchIV mirrors the facade's PaperIV: the attacker-chosen IV used to
// verify candidate faults against keystream.
var benchIV = snow3g.IV{0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F}

// The benchmark corpus: unprotected seeded designs only, so the
// per-design sequential-attack baseline (which must actually recover
// each key) is well-defined. Victims are synthesized once per binary,
// outside every timer — both sides measure triage, not synthesis.
const benchDesigns = 12

var (
	benchOnce    sync.Once
	benchVictims []*victim.Victim
	benchCorpus  []Design
	benchBytes   int64
	benchErr     error
)

func benchFixture(b *testing.B) ([]Design, []*victim.Victim) {
	benchOnce.Do(func() {
		for i := 0; len(benchCorpus) < benchDesigns; i++ {
			cfg := SeededConfig(7, i)
			if cfg.Protected {
				continue
			}
			v, err := victim.Build(cfg)
			if err != nil {
				benchErr = err
				return
			}
			benchVictims = append(benchVictims, v)
			benchCorpus = append(benchCorpus, Design{ID: cfg.Fingerprint(), Image: v.Image})
			benchBytes += int64(len(v.Image))
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus, benchVictims
}

// BenchmarkCorpusCensus measures corpus triage throughput (designs/sec
// and MB/s) of one census pass, against the two per-design sequential
// baselines — a fresh one-function Scanner per design (no shared
// index) and the full end-to-end attack per design (what a
// corpus-scale adversary would otherwise pay).
func BenchmarkCorpusCensus(b *testing.B) {
	designs, victims := benchFixture(b)
	target, err := boolfn.ParseAuto(DefaultTargetExpr)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("census", func(b *testing.B) {
		b.SetBytes(benchBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range designs {
				if _, err := c.Add(d); err != nil {
					b.Fatal(err)
				}
			}
			if rep := c.Report(); rep.Exposed != len(designs) {
				b.Fatalf("exposed %d of %d unprotected designs", rep.Exposed, len(designs))
			}
		}
		b.ReportMetric(float64(b.N*len(designs))/b.Elapsed().Seconds(), "designs/sec")
	})

	b.Run("sequential-findlut", func(b *testing.B) {
		b.SetBytes(benchBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range designs {
				if ms := core.NewScanner(core.FindOptions{}).AddFunction("f", target).Scan(d.Image).Matches["f"]; len(ms) == 0 {
					b.Fatal("no candidates on an unprotected design")
				}
				core.FindDualXOR(d.Image, 0, 0)
			}
		}
		b.ReportMetric(float64(b.N*len(designs))/b.Elapsed().Seconds(), "designs/sec")
	})

	b.Run("sequential-attack", func(b *testing.B) {
		b.SetBytes(benchBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for di, v := range victims {
				atk, err := core.NewAttack(v.Device, benchIV, nil)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := atk.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Verified {
					b.Fatalf("attack on design %d did not verify", di)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(victims))/b.Elapsed().Seconds(), "designs/sec")
	})
}
