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
// where handovers attach to shards that have never run and to empty,
// sleeping cells at most barriers; and a lag one (64 × 256, dwell 3 s)
// where a shard goes tens of epochs untouched and then covers them in one
// clock run. `make race` runs all three once under the detector, so the pool's
// due-list hand-off is raced on short and long catch-ups alike. Each
// sub-benchmark also reports what its barriers looked like — the mean
// due-list length and how many of them per run went through the pool
// (more than one shard due and Workers > 1) — from the coordinator's own
// tallies. The measured scaling numbers are benchmark/'s city-seq,
// city-par and city-sparse workloads; this benchmark is the small city to
// put under pprof:
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
				var barriers, pooled, due int64
				for i := 0; i < b.N; i++ {
					n, err := newCity(cfg)
					if err != nil {
						b.Fatal(err)
					}
					n.run()
					barriers += n.barriers
					pooled += n.pooled
					due += n.dueSum
				}
				b.ReportMetric(float64(due)/float64(barriers), "due/barrier")
				b.ReportMetric(float64(pooled)/float64(b.N), "pooled-barriers/op")
			})
		}
	}
}

// BenchmarkEpochHandoff is the hand-off alone: ns per pooled advance over
// sixteen shards that are already at the barrier, so publishing the
// generation, the helpers noticing it and the coordinator collecting them
// is all there is to time. Between advances the coordinator alone is busy
// for handoffGap, a busy city's barrier spacing, because that is what the
// hand-off has to survive: fired back to back, even workers parked on
// channels never get to fall asleep and any pool reads ≈ 1 µs. The gap is
// subtracted; handoff-ns/op is what remains. What a wake from the park
// costs is the host's futex latency, not ours, which is why neither this
// nor BenchmarkCityWorkers is a gate.
func BenchmarkEpochHandoff(b *testing.B) {
	const handoffGap = 300 * time.Microsecond
	for _, helpers := range []int{1, 3} {
		b.Run(fmt.Sprintf("helpers-%d", helpers), func(b *testing.B) {
			n, err := newCity(Config{Cells: 16, UEs: 64, Duration: epoch, Seed: 1, Workers: helpers + 1})
			if err != nil {
				b.Fatal(err)
			}
			defer n.pool.stop()
			end := n.step(0) // the run's only barrier: every shard is due and arrives
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := time.Now(); time.Since(t) < handoffGap; {
				}
				n.pool.run(end)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)-float64(handoffGap), "handoff-ns/op")
		})
	}
}
