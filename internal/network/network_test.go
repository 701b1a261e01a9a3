package network

import (
	"testing"
	"time"

	"poi360/internal/obs"
)

// TestCityByteIdentityAcrossWorkers is the network layer's determinism
// contract: one config, any Workers value, byte-identical results — and
// attaching a telemetry bus must not perturb the trajectory.
func TestCityByteIdentityAcrossWorkers(t *testing.T) {
	for name, base := range map[string]Config{"dense": cityDenseFixture(), "sparse": citySparseFixture()} {
		t.Run(name, func(t *testing.T) { cityByteIdentityAcrossWorkers(t, base, 2, 4, 8) })
	}
}

// cityDenseFixture is the UEs ≫ cells identity fixture: every shard is
// populated all run long and a few handovers are in flight at any instant.
func cityDenseFixture() Config {
	return Config{
		Cells:     9,
		UEs:       24,
		Duration:  6 * time.Second,
		Seed:      7,
		MeanDwell: 1500 * time.Millisecond,
	}
}

// cityByteIdentityAcrossWorkers holds base's fingerprint and coordinator
// event stream at each of the given worker counts to the Workers 1 run.
func cityByteIdentityAcrossWorkers(t *testing.T, base Config, parallel ...int) {
	run := func(workers int, bus *obs.Bus) *Result {
		cfg := base
		cfg.Workers = workers
		cfg.Obs = bus
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return res
	}

	refBus := obs.NewBus()
	ref := run(1, refBus)
	want := ref.Fingerprint()
	if ref.Handovers == 0 {
		t.Fatalf("identity fixture produced no handovers; weaken nothing — fix the config")
	}

	for _, workers := range parallel {
		bus := obs.NewBus()
		got := run(workers, bus)
		if fp := got.Fingerprint(); fp != want {
			t.Fatalf("workers=%d fingerprint diverged from workers=1:\n--- want ---\n%s\n--- got ---\n%s", workers, want, fp)
		}
		if a, b := refBus.Events(), bus.Events(); len(a) != len(b) {
			t.Fatalf("workers=%d: %d obs events, want %d", workers, len(b), len(a))
		} else {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: obs event %d = %+v, want %+v", workers, i, b[i], a[i])
				}
			}
		}
	}

	// Observation must not steer: the un-instrumented run matches too.
	if fp := run(parallel[0], nil).Fingerprint(); fp != want {
		t.Fatalf("running without obs changed the result:\n--- with ---\n%s\n--- without ---\n%s", want, fp)
	}
}

// TestCityStaticPopulation pins the no-mobility degenerate case: UEs
// stay home, no handovers, yet video flows and fairness is defined.
func TestCityStaticPopulation(t *testing.T) {
	res, err := Run(Config{Cells: 4, UEs: 12, Duration: 8 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Handovers != 0 || res.Degradations != 0 {
		t.Fatalf("static population saw %d handovers, %d degradations; want none", res.Handovers, res.Degradations)
	}
	for _, u := range res.PerUE {
		if u.Moves != 0 || u.HomeCell != u.FinalCell {
			t.Fatalf("UE %d moved (home %d, final %d, moves %d) with MeanDwell=0", u.ID, u.HomeCell, u.FinalCell, u.Moves)
		}
		if u.FramesDelivered == 0 {
			t.Fatalf("UE %d delivered no frames", u.ID)
		}
	}
	if res.ThroughputBps <= 0 {
		t.Fatalf("aggregate throughput %g, want > 0", res.ThroughputBps)
	}
	if res.JainGlobal <= 0 || res.JainGlobal > 1 {
		t.Fatalf("global Jain %g out of (0,1]", res.JainGlobal)
	}
	for c, j := range res.PerCellJain {
		if j <= 0 || j > 1 {
			t.Fatalf("cell %d Jain %g out of (0,1]", c, j)
		}
	}
}

// TestCityEmergentWatchdog verifies the PR 2 watchdog fires as an
// *emergent* consequence of mobility — no scripted DiagStall anywhere in
// the city layer — and that FBCC recovers once diag reports resume on
// the target cell.
func TestCityEmergentWatchdog(t *testing.T) {
	bus := obs.NewBus()
	res, err := Run(Config{
		Cells:     9,
		UEs:       18,
		Duration:  12 * time.Second,
		Seed:      11,
		MeanDwell: 2 * time.Second,
		Mix:       MixFBCC,
		Obs:       bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Handovers == 0 {
		t.Fatal("no handovers in a 12 s run with 2 s mean dwell")
	}
	if res.Degradations == 0 {
		t.Fatal("handovers occurred but the FBCC watchdog never tripped")
	}
	if res.Recoveries == 0 {
		t.Fatal("watchdog tripped but never recovered after re-attach")
	}
	if res.Recoveries > res.Degradations {
		t.Fatalf("%d recoveries > %d degradations", res.Recoveries, res.Degradations)
	}
	if res.OutageMean < 250*time.Millisecond {
		t.Fatalf("mean outage %v below the 250 ms handover floor", res.OutageMean)
	}

	// The obs stream tells the same story: every completed handover has a
	// detach and a re-attach, and outages carried on the handover event
	// are at least the floor.
	detach, attach, ho := 0, 0, 0
	for _, e := range bus.Events() {
		switch e.Kind {
		case obs.NetDetach:
			detach++
		case obs.NetAttach:
			if e.B == 1 {
				attach++
			}
		case obs.NetHandover:
			ho++
			if e.C < 0.25 {
				t.Fatalf("handover event outage %.3f s below the 250 ms floor", e.C)
			}
		}
	}
	if ho != res.Handovers || attach != res.Handovers {
		t.Fatalf("obs saw %d handovers / %d re-attaches, result says %d", ho, attach, res.Handovers)
	}
	if detach < ho {
		t.Fatalf("obs saw %d detaches < %d completed handovers", detach, ho)
	}
}

// TestCityScaleAcceptance is the headline run from the issue: ≥100 cells
// × ≥1000 UEs, mobility-driven, completing deterministically with at
// least one emergent handover per UE on average and the watchdog
// observed recovering. It is the most expensive test in the repo, so it
// honors -short.
func TestCityScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale acceptance run skipped in -short mode")
	}
	cfg := Config{
		Cells:     100,
		UEs:       1000,
		Duration:  30 * time.Second,
		Seed:      42,
		MeanDwell: 4 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Handovers < cfg.UEs {
		t.Fatalf("%d handovers over %d UEs; acceptance needs ≥1 per UE on average", res.Handovers, cfg.UEs)
	}
	if res.Degradations == 0 || res.Recoveries == 0 {
		t.Fatalf("watchdog trips=%d recoveries=%d; both must be positive", res.Degradations, res.Recoveries)
	}
	if res.ThroughputBps <= 0 {
		t.Fatal("city delivered no throughput")
	}

	// Determinism at scale: a second run at a different worker count must
	// be byte-identical.
	cfg2 := cfg
	cfg2.Workers = 3
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatal("city-scale run is not byte-identical across worker counts")
	}
	t.Log(res.Summarize())
}

// TestCityConfigValidate pins the config error surface.
func TestCityConfigValidate(t *testing.T) {
	bad := []Config{
		{Cells: 0, UEs: 1, Duration: time.Second},
		{Cells: 1, UEs: 0, Duration: time.Second},
		{Cells: 1, UEs: 1},
		{Cells: 1, UEs: 1, Duration: time.Second, MeanDwell: -time.Second},
		{Cells: 1, UEs: 1, Duration: time.Second, Mix: "banana"},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: Run accepted %+v", i, cfg)
		}
	}
}

// TestGridWalk pins the mobility geometry: steps stay on the ragged
// grid, adjacent only, and a 1-cell city never moves.
func TestGridWalk(t *testing.T) {
	if w := gridWidth(1); w != 1 {
		t.Fatalf("gridWidth(1) = %d", w)
	}
	if w := gridWidth(100); w != 10 {
		t.Fatalf("gridWidth(100) = %d", w)
	}
	if w := gridWidth(101); w != 11 {
		t.Fatalf("gridWidth(101) = %d", w)
	}

	res, err := Run(Config{Cells: 1, UEs: 3, Duration: 3 * time.Second, Seed: 5, MeanDwell: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Handovers != 0 {
		t.Fatalf("1-cell city produced %d handovers", res.Handovers)
	}

	// Ragged grid: 7 cells on a 3-wide grid; walk many steps from every
	// cell and require every destination to exist and be adjacent.
	const cells = 7
	w := gridWidth(cells)
	rng := newTestRand(99)
	for from := 0; from < cells; from++ {
		for k := 0; k < 200; k++ {
			to := stepCell(from, cells, w, rng)
			if to < 0 || to >= cells {
				t.Fatalf("step from %d left the city: %d", from, to)
			}
			dx := from%w - to%w
			dy := from/w - to/w
			if dx*dx+dy*dy > 1 {
				t.Fatalf("step from %d to %d is not grid-adjacent", from, to)
			}
		}
	}
}
