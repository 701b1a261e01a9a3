// Benchmarks: one per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark regenerates its experiment
// (at reduced scale so `go test -bench .` completes in minutes; use
// cmd/poi360-bench for full-scale runs) and reports the headline numbers as
// custom metrics, so `-benchmem` output doubles as a reproduction summary.
package poi360

import (
	"fmt"
	"testing"
	"time"

	"poi360/internal/obs"
)

// benchOpts is the reduced scale used by benchmarks.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{
		Quick:       true,
		Users:       3,
		Repeats:     1,
		SessionTime: 75 * time.Second,
	}
}

// runExperimentBench runs the experiment once per b.N iteration and reports
// selected measured values as custom metrics.
func runExperimentBench(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	// One memo and a fixed seed let repeated iterations recall the
	// experiment's campus-grid batches, so the benchmark measures
	// regeneration of the figure rather than compounding fresh multi-minute
	// session fleets.
	memo := NewExperimentMemo()
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Memo = memo
		rep, err := RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for key, unit := range metrics {
				if v, ok := rep.Measured[key]; ok {
					b.ReportMetric(v, unit)
				}
			}
		}
	}
}

// BenchmarkPaper regenerates each figure and ablation of the paper's
// evaluation, one sub-benchmark per experiment id, reporting the headline
// measured values as custom metrics.
func BenchmarkPaper(b *testing.B) {
	for _, e := range []struct {
		id      string
		metrics map[string]string
	}{
		{"fig5", map[string]string{"capacity": "cap_bps", "12KB": "tbs@12KB_bps"}},
		{"fig6", map[string]string{"lowUsage": "lowusage_frac", "medianKB": "median_KB"}},
		{"fig11", map[string]string{"cellular_POI360_psnr": "poi360_dB", "cellular_Conduit_psnr": "conduit_dB", "cellular_Pyramid_psnr": "pyramid_dB"}},
		{"fig12", map[string]string{"cellular_POI360_stab": "poi360_std", "cellular_Conduit_stab": "conduit_std"}},
		{"fig13", map[string]string{"cellular_POI360_median": "poi360_ms", "cellular_Pyramid_median": "pyramid_ms"}},
		{"fig14", map[string]string{"cellular_POI360_fr": "poi360_fr", "cellular_Pyramid_fr": "pyramid_fr"}},
		{"fig15", map[string]string{"FBCC_medianKB": "fbcc_KB", "GCC_medianKB": "gcc_KB"}},
		{"fig16a", map[string]string{"FBCC_fr": "fbcc_fr", "GCC_fr": "gcc_fr", "FBCC_thr": "fbcc_bps", "GCC_thr": "gcc_bps"}},
		{"fig16b", map[string]string{"FBCC_good": "fbcc_good", "GCC_good": "gcc_good"}},
		{"fig17ab", map[string]string{"idle (early morning)_fr": "idle_fr", "busy (campus noon)_fr": "busy_fr"}},
		{"fig17cd", map[string]string{"weak (-115 dBm garage)_psnr": "weak_dB", "strong (-73 dBm open)_psnr": "strong_dB"}},
		{"fig17ef", map[string]string{"15 mph residential_fr": "mph15_fr", "50 mph highway_fr": "mph50_fr"}},
		{"abl-modes", map[string]string{"short path adaptive (POI360)_psnr": "adaptive_dB", "short path fixed C=1.1_fr": "fixedC1.1_fr"}},
		{"abl-k", map[string]string{"K3_overuses": "k3_overuses", "K25_overuses": "k25_overuses"}},
		{"abl-rtp", map[string]string{"full FBCC_medianKB": "with_KB", "no Eq. 7 loop_medianKB": "without_KB"}},
		{"abl-hold", map[string]string{"2_fr": "hold2_fr"}},
	} {
		b.Run(e.id, func(b *testing.B) { runExperimentBench(b, e.id, e.metrics) })
	}
}

// BenchmarkTable1MOSMapping regenerates Table 1.
func BenchmarkTable1MOSMapping(b *testing.B) {
	runExperimentBench(b, "table1", nil)
}

// BenchmarkObsDisabled measures the cost of an Emit call on a nil probe —
// the price every hot path pays when observability is off. The contract is
// ~0 ns and 0 allocs/op: a disabled bus must be free.
func BenchmarkObsDisabled(b *testing.B) {
	var p *obs.Probe // nil: the disabled configuration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Emit(time.Duration(i), obs.FBCCTrigger, 1, 2, 3, 0)
	}
}

// BenchmarkObsEnabled measures a live Emit into a recording bus. The delta
// against BenchmarkObsDisabled is the observability overhead per event;
// EXPERIMENTS.md records the measured numbers. The bus reserves its event
// storage up front (as sessions do at Attach) and is reset periodically,
// so the benchmark measures the steady-state append path — 0 B/op — not
// slice growth.
func BenchmarkObsEnabled(b *testing.B) {
	bus := obs.NewBus()
	bus.Grow(0x100000)
	p := bus.Probe(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&0xFFFFF == 0xFFFFF {
			bus.Reset()
		}
		p.Emit(time.Duration(i), obs.FBCCTrigger, 1, 2, 3, 0)
	}
}

// BenchmarkObsSession measures end-to-end session cost with and without a
// bus attached — the realistic overhead of tracing a full FBCC run on the
// busy cell.
func BenchmarkObsSession(b *testing.B) {
	base := func() SessionConfig {
		return SessionConfig{
			Duration: 30 * time.Second,
			Network:  Cellular,
			Cell:     CellBusy,
			Scheme:   SchemeAdaptive,
			RC:       RCFBCC,
			Seed:     1,
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunSession(base()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		var events int
		for i := 0; i < b.N; i++ {
			bus := NewTelemetryBus()
			cfg := base()
			cfg.Obs = bus.Probe(0)
			if _, err := RunSession(cfg); err != nil {
				b.Fatal(err)
			}
			events = bus.Len()
		}
		b.ReportMetric(float64(events), "events")
	})
}

// BenchmarkSharedCellUsers measures how the shared-cell scenario scales
// with population: one clock, one PF-scheduled cell, N full telephony
// sessions. The per-user throughput share is reported as a custom metric,
// so the series doubles as a contention sanity check (share must shrink
// as N grows).
func BenchmarkSharedCellUsers(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				mc := MultiSessionConfig{
					Duration: 30 * time.Second,
					Cell:     CellCampus,
					Seed:     1,
				}
				for u := 0; u < n; u++ {
					mc.Sessions = append(mc.Sessions, SessionConfig{
						RC:   RCFBCC,
						User: Users[u%len(Users)],
					})
				}
				results, err := RunSharedCell(mc)
				if err != nil {
					b.Fatal(err)
				}
				share = 0
				for _, r := range results {
					share += r.ThroughputSummary().Mean
				}
				share /= float64(n)
			}
			b.ReportMetric(share, "share_bps")
			b.ReportMetric(share*float64(n), "cell_bps")
		})
	}
}
