package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"poi360/internal/obs"
)

// cityTelemetryFixture is small enough to run everywhere yet busy enough
// to produce handovers (coordinator events) and radio traffic on many
// shards.
func cityTelemetryFixture() Config {
	return Config{
		Cells:     9,
		UEs:       24,
		Duration:  3 * time.Second,
		Seed:      7,
		MeanDwell: 1200 * time.Millisecond,
	}
}

type cityTelemetryRun struct {
	res  *Result
	file []byte
	agg  *obs.ShardAgg
	bus  *obs.Bus
}

func runCityWithTelemetry(t *testing.T, cfg Config, workers int) cityTelemetryRun {
	t.Helper()
	cfg.Workers = workers
	var file bytes.Buffer
	bw := obs.NewBinWriter(&file)
	bus := obs.NewBus()
	bus.DisableRetention()
	bus.SpillTo(bw, -1, 0)
	agg := obs.NewShardAgg()
	agg.Bind(-1, bus)
	cfg.Obs = bus
	cfg.Agg = agg
	cfg.Sink = bw
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	if err := bw.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	return cityTelemetryRun{res: res, file: file.Bytes(), agg: agg, bus: bus}
}

// TestCityBinaryTelemetryByteIdentity is the production-telemetry
// contract on the city: the binary stream, the streaming aggregates, and
// the trajectory are all byte-identical at any Workers value, the stream
// decodes back to the exact same registry, and no event stream is ever
// retained in memory.
func TestCityBinaryTelemetryByteIdentity(t *testing.T) {
	for name, cfg := range map[string]Config{"dense": cityTelemetryFixture(), "sparse": citySparseFixture()} {
		t.Run(name, func(t *testing.T) { cityBinaryTelemetryByteIdentity(t, cfg) })
	}
}

func cityBinaryTelemetryByteIdentity(t *testing.T, fixture Config) {
	ref := runCityWithTelemetry(t, fixture, 1)

	// The trajectory matches a run with telemetry off entirely.
	plain := fixture
	plain.Workers = 1
	plainRes, err := Run(plain)
	if err != nil {
		t.Fatalf("plain Run: %v", err)
	}
	if plainRes.Fingerprint() != ref.res.Fingerprint() {
		t.Fatalf("binary telemetry perturbed the trajectory")
	}

	refTable := ref.agg.Merged().Table().String()
	refEps := ref.agg.Summary()
	merged := ref.agg.Merged()
	if merged.Count(obs.LTEGrant) == 0 || merged.Count(obs.NetHandover) == 0 {
		t.Fatalf("telemetry missing radio or coordinator traffic:\n%s", refTable)
	}
	if ref.bus.Len() != 0 {
		t.Fatalf("spilling coordinator bus retained %d events", ref.bus.Len())
	}

	for _, workers := range []int{2, 4} {
		got := runCityWithTelemetry(t, fixture, workers)
		if got.res.Fingerprint() != ref.res.Fingerprint() {
			t.Fatalf("workers=%d trajectory diverged", workers)
		}
		if !bytes.Equal(got.file, ref.file) {
			t.Fatalf("workers=%d: binary stream differs (%d vs %d bytes)", workers, len(got.file), len(ref.file))
		}
		if tbl := got.agg.Merged().Table().String(); tbl != refTable {
			t.Fatalf("workers=%d: streaming aggregate differs:\n got:\n%s\nwant:\n%s", workers, tbl, refTable)
		}
		if st := got.agg.Summary(); st != refEps {
			t.Fatalf("workers=%d: episode summary differs: %+v vs %+v", workers, st, refEps)
		}
	}

	// The file replays to the exact live aggregate: registry and episode
	// summary byte-for-byte.
	decoded := obs.NewShardAgg()
	n, err := obs.ReadBinary(bytes.NewReader(ref.file), decoded, nil)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if n == 0 {
		t.Fatalf("empty binary stream")
	}
	if tbl := decoded.Merged().Table().String(); tbl != refTable {
		t.Fatalf("decoded registry differs from live aggregate:\n got:\n%s\nwant:\n%s", tbl, refTable)
	}
	if st := decoded.Summary(); st != refEps {
		t.Fatalf("decoded episode summary differs: %+v vs %+v", st, refEps)
	}
}

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

// countWriter discards its input, counting bytes — the bounded-memory
// sink for the full-scale acceptance run (the stream is never held).
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestCityScaleBinaryTelemetryAcceptance streams a 64-cell × 256-UE ×
// 10 s city to a binary sink with bounded memory and checks the
// streaming aggregates are byte-identical across worker counts at full
// scale. Honors -short (CI's race smokes skip it; plain `make test`
// runs it).
func TestCityScaleBinaryTelemetryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale acceptance run (use plain `go test`)")
	}
	run := func(workers int) (*Result, *obs.ShardAgg, int64) {
		cfg := Config{
			Cells:     64,
			UEs:       256,
			Duration:  10 * time.Second,
			Seed:      11,
			MeanDwell: 2 * time.Second,
			Workers:   workers,
		}
		var cw countWriter
		bw := obs.NewBinWriter(&cw)
		bus := obs.NewBus()
		bus.DisableRetention()
		bus.SpillTo(bw, -1, 0)
		agg := obs.NewShardAgg()
		agg.Bind(-1, bus)
		cfg.Obs = bus
		cfg.Agg = agg
		cfg.Sink = bw
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if err := bw.Err(); err != nil {
			t.Fatalf("sink error: %v", err)
		}
		if bus.Len() != 0 {
			t.Fatalf("event stream retained at scale")
		}
		return res, agg, cw.n
	}

	res1, agg1, bytes1 := run(1)
	res4, agg4, bytes4 := run(4)
	if res1.Fingerprint() != res4.Fingerprint() {
		t.Fatalf("full-scale trajectory diverged across workers")
	}
	if bytes1 == 0 || bytes1 != bytes4 {
		t.Fatalf("binary stream size differs across workers: %d vs %d", bytes1, bytes4)
	}
	t1, t4 := agg1.Merged().Table().String(), agg4.Merged().Table().String()
	if t1 != t4 {
		t.Fatalf("full-scale streaming aggregates differ across workers:\n%s\nvs\n%s", t1, t4)
	}
	if s1, s4 := agg1.Summary(), agg4.Summary(); s1 != s4 {
		t.Fatalf("full-scale episode summaries differ: %+v vs %+v", s1, s4)
	}
	if agg1.Merged().Count(obs.LTEGrant) == 0 {
		t.Fatalf("no radio telemetry at scale")
	}
	t.Logf("64×256×10s: %d bytes streamed, %d grants, %d handovers",
		bytes1, agg1.Merged().Count(obs.LTEGrant), agg1.Merged().Count(obs.NetHandover))
}
