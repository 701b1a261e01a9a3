package network

import (
	"testing"
	"time"

	"poi360/internal/obs"
)

// cityChurnFixture is the handover-heavy city: at a 200 ms dwell every UE
// is in or between handovers most of the run (593 of them), walks back
// into the cell it is leaving, and the run ends off the 10 ms barrier grid.
func cityChurnFixture() Config {
	return Config{
		Cells:     16,
		UEs:       48,
		Duration:  6*time.Second + 5*time.Millisecond,
		Seed:      11,
		MeanDwell: 200 * time.Millisecond,
	}
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
			run := func(workers int, agg *obs.ShardAgg) *Result {
				cfg := base
				cfg.Workers = workers
				cfg.Agg = agg
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run(workers=%d): %v", workers, err)
				}
				return res
			}
			lockstep := run(1, obs.NewShardAgg())
			want := lockstep.Fingerprint()
			if name == "churn" && lockstep.Handovers <= 300 {
				t.Fatalf("churn fixture produced %d handovers, want > 300", lockstep.Handovers)
			}
			for _, workers := range []int{1, 3} {
				if fp := run(workers, nil).Fingerprint(); fp != want {
					t.Errorf("workers=%d: on-demand run diverged from lockstep:\n--- lockstep ---\n%s\n--- on demand ---\n%s", workers, want, fp)
				}
			}
			if fp := run(3, obs.NewShardAgg()).Fingerprint(); fp != want {
				t.Errorf("lockstep run diverged between workers 1 and 3")
			}
		})
	}
}

// TestCityStaticShardsRunOnlyAtTheEnd checks the rule is in force, which
// no identity test can (lockstep is also exact): in a static, untelemetered
// city no barrier but the last touches any shard, so no clock moves until
// then — and at the last one every populated shard arrives.
func TestCityStaticShardsRunOnlyAtTheEnd(t *testing.T) {
	for _, workers := range []int{1, 3} {
		n, err := newCity(Config{Cells: 9, UEs: 12, Duration: 95 * time.Millisecond, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if n.pool != nil {
			t.Cleanup(n.pool.stop)
		}
		var now time.Duration
		for barrier := 1; now < n.cfg.Duration; barrier++ {
			now = n.step(now)
			for c, sh := range n.shards {
				want := time.Duration(0)
				if now == n.cfg.Duration && len(sh.residents) > 0 {
					want = n.cfg.Duration
				}
				if got := sh.clk.Now(); got != want {
					t.Fatalf("workers=%d: after barrier %d (t=%v) shard %d's clock reads %v, want %v", workers, barrier, now, c, got, want)
				}
			}
		}
	}
}
