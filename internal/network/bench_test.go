package network

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkCityWorkers measures the pipelined epoch loop at increasing
// worker counts on a small city (results are byte-identical at any count;
// see TestCityByteIdentityAcrossWorkers, so the spread between sub-
// benchmarks is pure scheduling overhead and barrier cost). `make race`
// runs one raced pass of every tier. The measured scaling numbers are
// benchmark/'s city-seq and city-par workloads (network.par_speedup,
// network.par_efficiency); this benchmark is the small city to put under
// pprof:
//
//	go test -run '^$' -bench CityWorkers/workers-1 -cpuprofile cpu.pprof ./internal/network
func BenchmarkCityWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			cfg := Config{
				Cells:     16,
				UEs:       64,
				Duration:  2 * time.Second,
				Seed:      1,
				MeanDwell: 1500 * time.Millisecond,
				Workers:   w,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
