package network

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"poi360/internal/obs"
)

// cityBudgetStreamSHA256 is the P6T stream of cityBudgetRun, re-recorded
// when probed advanced cells began running uncontended stretches row by
// row, which reorders one cell's UEs' records among themselves: making
// telemetry cheaper must not add, drop, reorder or re-encode one record.
const cityBudgetStreamSHA256 = "323be4ae0ddf333b473590ab2b606bc497a7ddb4b74a966fea99d6b348e4ae52"

// cityBudgetRun runs a 16-cell / 64-UE / 2 s city, silent or with the
// city-telemetry wiring (a ShardAgg plus a binary sink over a hashing
// discard writer), and reports what the run allocated and the stream's
// digest.
func cityBudgetRun(t *testing.T, workers int, telemetry bool) (allocBytes, allocObjects uint64, digest string) {
	t.Helper()
	cfg := Config{
		Cells:     16,
		UEs:       64,
		Duration:  2 * time.Second,
		Seed:      7,
		MeanDwell: time.Second,
		Workers:   workers,
	}
	stream := sha256.New()
	var bw *obs.BinWriter
	if telemetry {
		bw = obs.NewBinWriter(stream)
		cfg.Agg = obs.NewShardAgg()
		cfg.Sink = bw
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run(workers=%d, telemetry=%v): %v", workers, telemetry, err)
	}
	runtime.ReadMemStats(&after)
	if telemetry {
		if err := bw.Err(); err != nil || bw.Bytes() == 0 {
			t.Fatalf("telemetry sink: %d bytes, err %v", bw.Bytes(), err)
		}
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs,
		hex.EncodeToString(stream.Sum(nil))
}

// TestCityTelemetryAllocBudget is the city-level half of the emit
// contract (TestPerfEmitZeroAlloc in internal/obs is the per-event half):
// switching Agg and Sink on may cost the per-shard buses and buffers, not
// an allocation per event. Before the emit path stopped escaping its
// Event, this configuration allocated 3.95× the bytes and 25.8× the objects
// of the silent run.
func TestCityTelemetryAllocBudget(t *testing.T) {
	silentBytes, silentObjects, _ := cityBudgetRun(t, 1, false)
	loudBytes, loudObjects, digest := cityBudgetRun(t, 1, true)
	t.Logf("silent %d B / %d objects, telemetered %d B / %d objects (×%.2f, ×%.2f)",
		silentBytes, silentObjects, loudBytes, loudObjects,
		float64(loudBytes)/float64(silentBytes), float64(loudObjects)/float64(silentObjects))
	// Telemetry's byte cost is a fixed set-up — one bus per cell, its spill
	// buffer, the sink's coalescing buffer: 327 432 B here — so it is
	// budgeted in bytes, just above what it measures, and not as a share of
	// the silent run, which shrinks whenever the endpoints get leaner.
	if limit := silentBytes + 350_000; loudBytes > limit {
		t.Errorf("telemetered city allocated %d B, budget %d + 350 000 = %d", loudBytes, silentBytes, limit)
	}
	if limit := silentObjects + silentObjects*15/100; loudObjects > limit {
		t.Errorf("telemetered city allocated %d objects, budget 1.15 × %d = %d", loudObjects, silentObjects, limit)
	}
	if digest != cityBudgetStreamSHA256 {
		t.Errorf("workers=1 stream digest %s, want %s", digest, cityBudgetStreamSHA256)
	}
	if _, _, digest4 := cityBudgetRun(t, 4, true); digest4 != cityBudgetStreamSHA256 {
		t.Errorf("workers=4 stream digest %s, want %s", digest4, cityBudgetStreamSHA256)
	}
}
