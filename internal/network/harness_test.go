package network

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"poi360/internal/obs"
)

// The city's differential harness: its fixtures, one player (playCity)
// that runs a config at a worker count under one telemetry wiring, and one
// comparison (sameCity) of everything two runs both observed —
// fingerprint, coordinator events, P6T stream, streaming aggregate and
// episode summary — to the first divergence.

// cityDenseFixture is the UEs ≫ cells identity fixture: every shard is
// populated all run long and a few handovers are in flight at any instant.
func cityDenseFixture() Config {
	return Config{Cells: 9, UEs: 24, Duration: 6 * time.Second, Seed: 7, MeanDwell: 1500 * time.Millisecond}
}

// citySparseFixture is the cells ≫ UEs counterpart: most shards are
// dormant at any instant and, with a short dwell, cells empty and refill
// all run long (an empty advanced cell is advanced by its capacity step).
func citySparseFixture() Config {
	return Config{Cells: 64, UEs: 10, Duration: 6 * time.Second, Seed: 7, MeanDwell: 400 * time.Millisecond}
}

// cityChurnFixture is the handover-heavy city: at a 200 ms dwell every UE
// is in or between handovers most of the run (593 of them), walks back
// into the cell it is leaving, and the run ends off the 10 ms barrier grid.
func cityChurnFixture() Config {
	return Config{Cells: 16, UEs: 48, Duration: 6*time.Second + 5*time.Millisecond, Seed: 11, MeanDwell: 200 * time.Millisecond}
}

// cityTelemetryFixture is small enough to run everywhere yet busy enough
// to produce handovers (coordinator events) and radio traffic on many
// shards.
func cityTelemetryFixture() Config {
	return Config{Cells: 9, UEs: 24, Duration: 3 * time.Second, Seed: 7, MeanDwell: 1200 * time.Millisecond}
}

// wiring is what a city run observes.
type wiring int

const (
	silent  wiring = iota
	coordOn        // Obs: a retaining coordinator bus
	aggOn          // Agg: every cell probed into a ShardAgg, nothing written
	spilled        // the P6T pipeline: Obs spilling, Agg, Sink, stream kept
	counted        // the same into a byte counter: bounded memory at scale
)

type cityRun struct {
	res    *Result
	events []obs.Event
	file   []byte
	n      int64
	agg    *obs.ShardAgg
	bus    *obs.Bus
	// What the wiring observes, set when the run is wired, not read off
	// its result: an empty event list or stream is compared too.
	coordinated, streamed bool
}

// countWriter discards its input, counting bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// playCity runs cfg at the given worker count under wiring w.
func playCity(t *testing.T, cfg Config, workers int, w wiring) cityRun {
	t.Helper()
	cfg.Workers = workers
	var run cityRun
	var file bytes.Buffer
	var cw countWriter
	var bw *obs.BinWriter
	switch w {
	case coordOn:
		run.bus, run.coordinated = obs.NewBus(), true
		cfg.Obs = run.bus
	case aggOn:
		run.agg = obs.NewShardAgg()
		cfg.Agg = run.agg
	case spilled, counted:
		if bw = obs.NewBinWriter(&cw); w == spilled {
			bw = obs.NewBinWriter(&file)
		}
		run.bus, run.agg, run.streamed = obs.NewBus(), obs.NewShardAgg(), true
		run.bus.DisableRetention()
		run.bus.SpillTo(bw, -1, 0)
		run.agg.Bind(-1, run.bus)
		cfg.Obs, cfg.Agg, cfg.Sink = run.bus, run.agg, bw
	}
	var err error
	if run.res, err = Run(cfg); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	if bw != nil {
		if err := bw.Err(); err != nil {
			t.Fatalf("sink error: %v", err)
		}
		if run.bus.Len() != 0 {
			t.Fatalf("spilling coordinator bus retained %d events", run.bus.Len())
		}
		run.file, run.n = file.Bytes(), bw.Bytes()
	} else if run.bus != nil {
		run.events = run.bus.Events()
	}
	return run
}

// sameCity fails t unless got matches want in everything both are wired
// to observe.
func sameCity(t *testing.T, what string, got, want cityRun) {
	t.Helper()
	if g, w := got.res.Fingerprint(), want.res.Fingerprint(); g != w {
		t.Fatalf("%s: fingerprint diverged:\n--- want ---\n%s\n--- got ---\n%s", what, w, g)
	}
	if got.coordinated && want.coordinated {
		firstDiff(t, what+": coordinator event", got.events, want.events)
	}
	if got.streamed && want.streamed && (got.n != want.n || !bytes.Equal(got.file, want.file)) {
		t.Fatalf("%s: P6T stream differs (%d vs %d bytes)", what, got.n, want.n)
	}
	if got.agg != nil && want.agg != nil {
		if g, w := got.agg.Merged().Table().String(), want.agg.Merged().Table().String(); g != w {
			t.Fatalf("%s: streaming aggregate differs:\n got:\n%s\nwant:\n%s", what, g, w)
		}
		if g, w := got.agg.Summary(), want.agg.Summary(); g != w {
			t.Fatalf("%s: episode summary differs: %+v vs %+v", what, g, w)
		}
	}
}

// firstDiff fails t at the first element where got and want differ, or
// on their lengths.
func firstDiff[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d of them, want %d", what, len(got), len(want))
	}
}

// TestCityByteIdentityAcrossWorkers is the network layer's determinism
// contract: one config, any Workers value, the same fingerprint and
// coordinator event stream — and attaching a telemetry bus must not
// perturb the trajectory.
func TestCityByteIdentityAcrossWorkers(t *testing.T) {
	for name, base := range map[string]Config{"dense": cityDenseFixture(), "sparse": citySparseFixture()} {
		t.Run(name, func(t *testing.T) { identicalAcrossWorkers(t, base, 2, 4, 8) })
	}
}

// identicalAcrossWorkers holds base's fingerprint and coordinator event
// stream at each of the given worker counts, and without obs at the first,
// to the Workers 1 run.
func identicalAcrossWorkers(t *testing.T, base Config, parallel ...int) {
	t.Helper()
	ref := playCity(t, base, 1, coordOn)
	if ref.res.Handovers == 0 {
		t.Fatalf("identity fixture produced no handovers; weaken nothing — fix the config")
	}
	for _, workers := range parallel {
		sameCity(t, fmt.Sprintf("workers %d", workers), playCity(t, base, workers, coordOn), ref)
	}
	sameCity(t, "without obs", playCity(t, base, parallel[0], silent), ref)
}

// TestCityOnDemandMatchesLockstep holds the on-demand engine against the
// lockstep one without a knob to select it: with Config.Agg set every
// shard with a resident is due at every barrier (the telemetry flush
// touches it), and probes only observe — so the two runs must agree to
// the byte. A catch-up missing from the due list (detach, retire or attach
// shard) shows here as a diverged trajectory. Probes also keep every
// subframe of the Agg run on the cells' per-subframe body, so the silent
// run's row-by-row advances are held to it too.
// Runs in -short: `make race` races the pool's due-list hand-off on it.
func TestCityOnDemandMatchesLockstep(t *testing.T) {
	for name, base := range map[string]Config{"dense": cityDenseFixture(), "sparse": citySparseFixture(), "churn": cityChurnFixture()} {
		t.Run(name, func(t *testing.T) {
			lockstep := playCity(t, base, 1, aggOn)
			if name == "churn" && lockstep.res.Handovers <= 300 {
				t.Fatalf("churn fixture produced %d handovers, want > 300", lockstep.res.Handovers)
			}
			sameCity(t, "on demand, workers 1", playCity(t, base, 1, silent), lockstep)
			sameCity(t, "on demand, workers 3", playCity(t, base, 3, silent), lockstep)
			sameCity(t, "lockstep, workers 3", playCity(t, base, 3, aggOn), lockstep)
		})
	}
}

// TestCityBinaryTelemetryByteIdentity is the production-telemetry
// contract on the city: the binary stream, the streaming aggregates, and
// the trajectory are all byte-identical at any Workers value and to a run
// with telemetry off, the stream decodes back to the exact same registry
// and episode summary, and no event stream is ever retained in memory.
func TestCityBinaryTelemetryByteIdentity(t *testing.T) {
	for name, cfg := range map[string]Config{"dense": cityTelemetryFixture(), "sparse": citySparseFixture()} {
		t.Run(name, func(t *testing.T) {
			ref := playCity(t, cfg, 1, spilled)
			sameCity(t, "telemetry off", playCity(t, cfg, 1, silent), ref)
			if merged := ref.agg.Merged(); merged.Count(obs.LTEGrant) == 0 || merged.Count(obs.NetHandover) == 0 {
				t.Fatalf("telemetry missing radio or coordinator traffic:\n%s", merged.Table())
			}
			for _, workers := range []int{2, 4} {
				sameCity(t, fmt.Sprintf("workers %d", workers), playCity(t, cfg, workers, spilled), ref)
			}
			decoded := cityRun{res: ref.res, agg: obs.NewShardAgg()}
			if n, err := obs.ReadBinary(bytes.NewReader(ref.file), decoded.agg, nil); err != nil || n == 0 {
				t.Fatalf("ReadBinary: %d records, %v", n, err)
			}
			sameCity(t, "decoded", decoded, ref)
		})
	}
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
	cfg := Config{Cells: 64, UEs: 256, Duration: 10 * time.Second, Seed: 11, MeanDwell: 2 * time.Second}
	ref := playCity(t, cfg, 1, counted)
	sameCity(t, "full scale, workers 4", playCity(t, cfg, 4, counted), ref)
	if ref.n == 0 || ref.agg.Merged().Count(obs.LTEGrant) == 0 {
		t.Fatalf("no stream (%d bytes) or no radio telemetry at scale", ref.n)
	}
	t.Logf("64×256×10s: %d bytes streamed, %d grants, %d handovers",
		ref.n, ref.agg.Merged().Count(obs.LTEGrant), ref.agg.Merged().Count(obs.NetHandover))
}
