package network

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkCityWorkers measures the pipelined epoch loop at increasing
// worker counts on a small city (results are byte-identical at any count;
// see TestCityByteIdentityAcrossWorkers, so the spread between sub-
// benchmarks is pure scheduling overhead and barrier cost), and on a
// sparse one — 256 cells for 32 UEs on a short dwell — where shards go
// dormant and cells sleep and wake at most barriers, so the raced pass of
// `make race` exercises the awake list under the persistent pool. The
// measured scaling numbers are benchmark/'s city-seq, city-par and
// city-sparse workloads; this benchmark is the small city to put under
// pprof:
//
//	go test -run '^$' -bench 'CityWorkers/^workers-1$' -cpuprofile cpu.pprof ./internal/network
func BenchmarkCityWorkers(b *testing.B) {
	dense := Config{Cells: 16, UEs: 64, Duration: 2 * time.Second, Seed: 1, MeanDwell: 1500 * time.Millisecond}
	sparse := Config{Cells: 256, UEs: 32, Duration: 2 * time.Second, Seed: 1, MeanDwell: 500 * time.Millisecond}
	for _, tier := range []struct {
		name    string
		cfg     Config
		workers []int
	}{{"workers", dense, []int{1, 2, 4, 8}}, {"sparse-workers", sparse, []int{1, 2, 4}}} {
		for _, w := range tier.workers {
			b.Run(fmt.Sprintf("%s-%d", tier.name, w), func(b *testing.B) {
				cfg := tier.cfg
				cfg.Workers = w
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
