package network

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkCityWorkers measures the on-demand barrier loop at increasing
// worker counts (results are byte-identical at any count; see
// TestCityByteIdentityAcrossWorkers, so the spread between sub-benchmarks
// is pure scheduling overhead and pool hand-off cost) on three small
// cities that differ in what a barrier's due list looks like: a dense one
// (16 cells, dwell 1.5 s) where most barriers touch a shard or two that
// lag a few epochs; a sparse one — 256 cells for 32 UEs on a short dwell —
// where handovers attach to shards that have never run and cells sleep and
// wake at most barriers; and a lag one (64 × 256, dwell 3 s) where a
// shard goes tens of epochs untouched and then covers them in one clock
// run. `make race` runs all three once under the detector, so the pool's
// due-list hand-off is raced on short and long catch-ups alike. The
// measured scaling numbers are benchmark/'s city-seq, city-par and
// city-sparse workloads; this benchmark is the small city to put under
// pprof:
//
//	go test -run '^$' -bench 'CityWorkers/^workers-1$' -cpuprofile cpu.pprof ./internal/network
func BenchmarkCityWorkers(b *testing.B) {
	dense := Config{Cells: 16, UEs: 64, Duration: 2 * time.Second, Seed: 1, MeanDwell: 1500 * time.Millisecond}
	sparse := Config{Cells: 256, UEs: 32, Duration: 2 * time.Second, Seed: 1, MeanDwell: 500 * time.Millisecond}
	lag := Config{Cells: 64, UEs: 256, Duration: 2 * time.Second, Seed: 1, MeanDwell: 3 * time.Second}
	for _, tier := range []struct {
		name    string
		cfg     Config
		workers []int
	}{{"workers", dense, []int{1, 2, 4, 8}}, {"sparse-workers", sparse, []int{1, 2, 4}}, {"lag-workers", lag, []int{1, 2}}} {
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
