package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"poi360/internal/obs"
)

// TestCityFingerprintsPinned pins sha256(Fingerprint()) of eight cities,
// re-recorded once when every stream moved to seeds.SplitMix drawn directly
// (mobility's home cell and grid step as int(Float64()·n), dwell by inverse
// CDF): a declared trajectory change. Until the next such change, sleeping
// cells, dormant or lagging shards and any other engine work are pure
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
			false, "ee05ab5fdd058b022eb1dceff5eedcef36b8ed79aab8ba23b73e47331dfed2c2"},
		{Config{Cells: 9, UEs: 3, Duration: 30 * time.Second, Seed: 5, MeanDwell: 300 * ms}, []int{1},
			false, "121089f6557af9acf5485a58ad5603a0e2975368678955cbce7f51ec0015c244"},
		{Config{Cells: 64, UEs: 16, Duration: 7 * time.Second, Seed: 3}, []int{1},
			false, "de7b1b120a2f5d7052db1f8fc2523d6063b9a79abc8b35d544941cffd3a1822c"},
		{Config{Cells: 256, UEs: 1024, Duration: 5 * time.Second, Seed: 7, MeanDwell: 3 * time.Second}, []int{1},
			false, "649a29bc3500754a3c13d2a128d2fa25d35d70f24c4a832d33ffbdb32d04815c"},
		// A Duration that is not a multiple of the 10 ms epoch (the last epoch
		// is clipped, and dormant shards are never brought to it), and the
		// one-cell city, which can never sleep.
		{Config{Cells: 40, UEs: 6, Duration: 4*time.Second + 5300*time.Microsecond, Seed: 9, MeanDwell: 300 * ms}, []int{1, 3},
			false, "b2a25fd0dc3c6df779c0490f6dcf5d052afe1797521d06b83e971d2ae5ffc41d"},
		{Config{Cells: 1, UEs: 3, Duration: 2*time.Second + 3700*time.Microsecond, Seed: 5, MeanDwell: 200 * ms}, []int{1, 4},
			false, "7a984cc92ad53d8ce643ae6e74e0d2851247807d5ddcdd4abd63b0c6bdee9398"},
		{Config{Cells: 1024, UEs: 256, Duration: 10 * time.Second, Seed: 12345, MeanDwell: 3 * time.Second}, []int{1, 4},
			true, "9a4ea52b2f540c742aa0222d1bcf385bca789bd31c1570ca91b8fe04b3ade85d"},
		{cityChurnFixture(), []int{1, 3},
			false, "8a6ad08f785318709caccd695c54c432634a0a26a8769b40dc2f91d0d5f431a5"},
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
// cells empty and refill all run long (an empty advanced cell is advanced
// by its capacity step).
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
// in shard-id order — to the digest re-recorded when probed advanced cells
// began running uncontended stretches row by row (one cell's UEs then
// interleave differently; TestCityStreamCanonicalPinned held every record
// across that change). A dormant shard's bus has nothing pending, so
// sweeping it flushes nothing and not one byte moves.
func TestCitySparseStreamPinned(t *testing.T) {
	const want = "ce0c3075bcbf236fce5039dcbea5ecfdbcf0c80f15927e631207eb9e7105da60"
	for _, workers := range []int{1, 4} {
		sum := sha256.Sum256(runCityWithTelemetry(t, citySparseFixture(), workers).file)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d stream sha256 %s, want %s", workers, got, want)
		}
	}
}

// TestCityStreamCanonicalPinned pins the sparse fixture's stream up to the
// interleaving of its sub-streams: every event and gauge record decoded,
// stable-sorted by (shard, sub, At) and hashed. An advanced cell may run
// its rows one after another, which interleaves one cell's UEs differently
// from subframe order but must not add, drop, change or reorder a record
// of any one UE — so this digest holds where the raw stream digest above
// may move.
func TestCityStreamCanonicalPinned(t *testing.T) {
	const want = "815929ab6c795a7a3e1ff74285080271ba4e01ebbbe37455bf92ac7d64ef61f5"
	for _, workers := range []int{1, 4} {
		if got := canonicalStreamDigest(t, runCityWithTelemetry(t, citySparseFixture(), workers).file); got != want {
			t.Errorf("workers=%d canonical stream sha256 %s, want %s", workers, got, want)
		}
	}
}

// canonicalStreamDigest decodes a P6T stream and hashes its data records
// in (shard, sub, At) order, stream order among ties.
func canonicalStreamDigest(t *testing.T, file []byte) string {
	t.Helper()
	var recs []obs.BinRecord
	var dec obs.EventDecoder
	for off := 0; off < len(file); {
		var rec obs.BinRecord
		n, err := dec.Next(file[off:], &rec)
		if err != nil {
			t.Fatalf("decode at byte %d: %v", off, err)
		}
		off += n
		if rec.Tag == obs.RecEvent || rec.Tag == obs.RecGauge {
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.Event.Sub != b.Event.Sub {
			return a.Event.Sub < b.Event.Sub
		}
		return a.Event.At < b.Event.At
	})
	h := sha256.New()
	for i := range recs {
		r := &recs[i]
		e := &r.Event
		fmt.Fprintf(h, "%d %d %d %d %d %x %x %x %x %q %x\n", r.Tag, r.Shard, e.Kind, e.Sub, e.At,
			math.Float64bits(e.A), math.Float64bits(e.B), math.Float64bits(e.C), math.Float64bits(e.D),
			r.Name, math.Float64bits(r.Value))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cityAlloc reports the bytes one sequential run of cfg allocates, and the
// run's result.
func cityAlloc(t *testing.T, cfg Config) (uint64, *Result) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, res
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
		b, _ := cityAlloc(t, Config{Cells: 16, UEs: 64, Seed: 1, Workers: 1, Duration: d})
		return b
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

// TestCityHandoverAllocBudget bounds what a handover allocates, measured as
// the extra TotalAlloc of sim-seconds 20–40 of a 64 × 256 city at a 3 s mean
// dwell over the extra handovers (≈ 1 500). A handover costs the target
// cell a modem row, the residency its port and diag closure, and the
// endpoint whatever its queues regrow: 3.2 KiB when every residency also
// got a fresh 32-packet firmware queue, 1.5 KiB since a detached row's
// queue is recycled by the cell's next admit.
func TestCityHandoverAllocBudget(t *testing.T) {
	at := func(d time.Duration) (uint64, int) {
		b, res := cityAlloc(t, Config{Cells: 64, UEs: 256, Seed: 1, Workers: 1, MeanDwell: 3 * time.Second, Duration: d})
		return b, res.Handovers
	}
	a20, h20 := at(20 * time.Second)
	a40, h40 := at(40 * time.Second)
	if h40 <= h20 {
		t.Fatalf("%d handovers by 20 s, %d by 40 s; the window has none to measure", h20, h40)
	}
	per := float64(int64(a40)-int64(a20)) / float64(h40-h20)
	t.Logf("sim-seconds 20–40: %d B over %d handovers, %.0f B per handover", int64(a40)-int64(a20), h40-h20, per)
	if per > 2<<10 {
		t.Errorf("%.0f B per handover, budget 2 KiB", per)
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
	// trips = recoveries = handovers − 1 held on both generators' streams
	// (9/8/8 before every stream moved to seeds.SplitMix drawn directly,
	// 17/16/16 since), so the relation is pinned as well as the counts.
	if res.Degradations != res.Handovers-1 || res.Recoveries != res.Handovers-1 {
		t.Fatalf("%d handovers, %d watchdog trips, %d recoveries; want trips = recoveries = handovers − 1",
			res.Handovers, res.Degradations, res.Recoveries)
	}
	if res.Handovers != 17 || res.Degradations != 16 || res.Recoveries != 16 {
		t.Fatalf("%d handovers, %d watchdog trips, %d recoveries; want 17, 16, 16",
			res.Handovers, res.Degradations, res.Recoveries)
	}
	if res.PerUE[0].FramesDelivered == 0 {
		t.Fatal("the UE delivered no frames")
	}
}
