package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestCityFingerprintsPinned pins sha256(Fingerprint()) of eight cities:
// seven as the tree read them before cells learned to sleep (recorded on
// commit 3d5ef30), the high-churn one before shards ran on demand (commit
// b571c46). A sleeping cell, a dormant shard and a lagging shard are pure
// wall-time optimisations: not one bit of any trajectory may move, at any
// Workers.
func TestCityFingerprintsPinned(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		cfg     Config
		workers []int
		long    bool
		want    string
	}{
		{Config{Cells: 100, UEs: 30, Duration: 20 * time.Second, Seed: 99, MeanDwell: 500 * ms}, []int{2},
			false, "6d517b70df7671b276fa9b71a10e11e4bd48f20fefb5633538b8af05c94eb155"},
		{Config{Cells: 9, UEs: 3, Duration: 30 * time.Second, Seed: 5, MeanDwell: 300 * ms}, []int{1},
			false, "f945e6b84d7407aa23d0a8e4e62ad41eda02382a95f157efeb5cecca17136015"},
		{Config{Cells: 64, UEs: 16, Duration: 7 * time.Second, Seed: 3}, []int{1},
			false, "21e297c1465891fb788fc3e8ced7e73a0957ad81e54e21dc772e37bf098c93dd"},
		{Config{Cells: 256, UEs: 1024, Duration: 5 * time.Second, Seed: 7, MeanDwell: 3 * time.Second}, []int{1},
			false, "c6fa31caafe58bad6a7536123c191058e231713b3b2c5019ea09e471d4999f5d"},
		// A Duration that is not a multiple of the 10 ms epoch (the last epoch
		// is clipped, and dormant shards are never brought to it), and the
		// one-cell city, which can never sleep.
		{Config{Cells: 40, UEs: 6, Duration: 4*time.Second + 5300*time.Microsecond, Seed: 9, MeanDwell: 300 * ms}, []int{1, 3},
			false, "5b5108d4e16b5410d57a93d5a08d1d472a3375e9d89dff736144d4ddc6c5e08a"},
		{Config{Cells: 1, UEs: 3, Duration: 2*time.Second + 3700*time.Microsecond, Seed: 5, MeanDwell: 200 * ms}, []int{1, 4},
			false, "de3a25a3d908e09f89a6c75fd47403533062c3017b12e134bbb396b5f4f3f5f6"},
		{Config{Cells: 1024, UEs: 256, Duration: 10 * time.Second, Seed: 12345, MeanDwell: 3 * time.Second}, []int{1, 4},
			true, "6de353100a272e28a407cb043208c2ba37ee1a218e0643e63d0a2f7228c64c26"},
		{cityChurnFixture(), []int{1, 3},
			false, "33e530e26d94433c58a216190fe6f27bca4deb53cc908c05b532aad8471dcfba"},
	}
	for _, tc := range cases {
		for _, w := range tc.workers {
			cfg := tc.cfg
			cfg.Workers = w
			name := fmt.Sprintf("%dx%d/%v/dwell-%v/workers-%d", cfg.Cells, cfg.UEs, cfg.Duration, cfg.MeanDwell, w)
			t.Run(name, func(t *testing.T) {
				if tc.long && testing.Short() {
					t.Skip("the full city-sparse scenario is skipped in -short mode")
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(res.Fingerprint()))
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Fatalf("fingerprint sha256 %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// citySparseFixture is the cells ≫ UEs counterpart of the dense identity
// fixtures: most shards are dormant at any instant and, with a short dwell,
// cells fall asleep and wake all run long.
func citySparseFixture() Config {
	return Config{
		Cells:     64,
		UEs:       10,
		Duration:  6 * time.Second,
		Seed:      7,
		MeanDwell: 400 * time.Millisecond,
	}
}

// TestCitySparseStreamPinned pins the sparse fixture's whole P6T stream —
// coordinator events and every cell's radio telemetry, flushed per epoch
// in shard-id order — to the digest the tree wrote before shards could go
// dormant: a dormant shard's bus has nothing pending, so sweeping it
// flushes nothing and not one byte moves.
func TestCitySparseStreamPinned(t *testing.T) {
	const want = "2897df6340cf284aef72dda0804f8ea841351cd3bfc12e073a188d1af5cb8a75"
	for _, workers := range []int{1, 4} {
		sum := sha256.Sum256(runCityWithTelemetry(t, citySparseFixture(), workers).file)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d stream sha256 %s, want %s", workers, got, want)
		}
	}
}

// cityAlloc reports the bytes one sequential run of cfg allocates.
func cityAlloc(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCitySteadyStateAllocFree pins how much a static 16 × 64 city allocates
// once it is running, as differences of whole-run TotalAlloc (Run has no
// mid-run seam; a sequential run's TotalAlloc repeats to within a few KB).
//
// Sim-seconds 20–40 are the window the endpoint/FBCC churn fix was sized on.
// It does NOT come out allocation-free: a static city's senders overrun
// their modems (firmware buffers climb towards the 512 KB cap for about two
// minutes), so lte.UE's firmware queue and the endpoint's pending-frame
// window keep reaching new high-water marks — live backlog, which is the
// trajectory, not churn. The window allocates ≈ 2.5 MB, all of it in
// those two appends (5.1 MB before the feedback queue stopped doubling for
// the whole residency and FBCC's ΣTBS window slid in place); the bound sits
// just above that so the churn cannot come back unseen.
//
// Once the buffers are full (≈ 140 s for this seed) twenty more seconds of
// 64 senders allocate nothing: no queue regrows unless its live backlog sets
// a new record, which is what the ue comment means by allocation-free.
func TestCitySteadyStateAllocFree(t *testing.T) {
	at := func(d time.Duration) uint64 {
		return cityAlloc(t, Config{Cells: 16, UEs: 64, Seed: 1, Workers: 1, Duration: d})
	}
	a20, a40 := at(20*time.Second), at(40*time.Second)
	t.Logf("TotalAlloc: 20 s %d B, 40 s %d B, difference %d B", a20, a40, int64(a40)-int64(a20))
	if a40 > a20+2600<<10 {
		t.Errorf("sim-seconds 20–40 allocated %d B, budget 2 600 KiB", a40-a20)
	}
	if testing.Short() {
		t.Skip("the settled window (300 more sim-s) is skipped in -short mode")
	}
	a140, a160 := at(140*time.Second), at(160*time.Second)
	t.Logf("TotalAlloc: 140 s %d B, 160 s %d B, difference %d B", a140, a160, int64(a160)-int64(a140))
	if a160 > a140+64<<10 {
		t.Errorf("sim-seconds 140–160 allocated %d B, budget 64 KiB", a160-a140)
	}
}

// TestCitySparseEmergentWatchdog is TestCityEmergentWatchdog on a grid with
// one UE: through every handover outage it is the only resident of its old
// shard, so that shard stays awake on the UE's frame ticker alone while its
// cell — detached from, hence empty — sleeps. The two mechanisms must stay
// independent: the endpoint keeps evaluating the watchdog against the silent
// diag feed, trips, and recovers on the (just woken) target cell.
func TestCitySparseEmergentWatchdog(t *testing.T) {
	res, err := Run(Config{
		Cells:     64,
		UEs:       1,
		Duration:  20 * time.Second,
		Seed:      11,
		MeanDwell: time.Second,
		Mix:       MixFBCC,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summarize())
	// Exactly the counts the tree read before cells slept.
	if res.Handovers != 9 || res.Degradations != 8 || res.Recoveries != 8 {
		t.Fatalf("%d handovers, %d watchdog trips, %d recoveries; want 9, 8, 8",
			res.Handovers, res.Degradations, res.Recoveries)
	}
	if res.PerUE[0].FramesDelivered == 0 {
		t.Fatal("the UE delivered no frames")
	}
}
