package campaign

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkCampaignThroughput measures end-to-end scenario throughput
// (full synthesize→attack→verify cycles per second) at worker-pool
// width 1 versus all CPUs; the two widths show the pool's scaling on
// the build host.
func BenchmarkCampaignThroughput(b *testing.B) {
	widths := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		widths = append(widths, n)
	}
	for _, par := range widths {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Config{Runs: 6, Parallel: par, Seed: 1, Chaos: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Healthy() {
					b.Fatalf("benchmark campaign unhealthy: %+v", rep.Aggregate)
				}
				total += len(rep.Results)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}
