package session

import (
	"testing"
	"time"

	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/video"
)

// Frame conservation: every delivered or lost frame was sent in the same
// measurement window (in-flight frames at the end are the only slack).
func TestFrameConservation(t *testing.T) {
	res := run(t, Config{Duration: 20 * time.Second, Seed: 31, Cell: lte.ProfileCampus})
	if res.FramesDelivered+res.FramesLost > res.FramesSent+5 {
		t.Fatalf("conservation broken: sent %d, delivered %d, lost %d",
			res.FramesSent, res.FramesDelivered, res.FramesLost)
	}
}

// A hostile environment — weak signal, busy cell, highway mobility with
// outages — must degrade gracefully: the session completes, ratios stay in
// range, and the metrics remain internally consistent.
func TestHostileEnvironmentSurvives(t *testing.T) {
	res := run(t, Config{
		Duration: 45 * time.Second,
		Seed:     32,
		Cell:     lte.CellProfile{RSSdBm: -118, BackgroundLoad: 0.6, SpeedMph: 55, Seed: 32},
		User:     headmotion.Users[4],
		RC:       RCFBCC,
	})
	fr := res.FreezeRatio()
	if fr < 0 || fr > 1 {
		t.Fatalf("freeze ratio %v out of range", fr)
	}
	if res.FramesDelivered == 0 && res.FramesLost == 0 {
		t.Fatal("nothing moved at all — transport wedged")
	}
	for i := 1; i < len(res.ROILevels); i++ {
		if res.ROILevels[i].At < res.ROILevels[i-1].At {
			t.Fatal("delivery timestamps went backwards")
		}
	}
}

// Mode indices stay within the configured mode set.
func TestModeIndicesInRange(t *testing.T) {
	res := run(t, Config{Duration: 30 * time.Second, Seed: 33, Cell: lte.ProfileBusy, User: headmotion.Users[4]})
	for _, m := range res.Modes {
		if m.V < 1 || m.V > 8 {
			t.Fatalf("mode %v outside [1,8]", m.V)
		}
	}
}

// Rates recorded in the result must be positive and bounded.
func TestRateSamplesSane(t *testing.T) {
	res := run(t, Config{Duration: 20 * time.Second, Seed: 34, RC: RCFBCC})
	for _, s := range res.VideoRate {
		if s.V <= 0 || s.V > 50e6 {
			t.Fatalf("video rate %v implausible", s.V)
		}
	}
	for _, s := range res.RTPRate {
		if s.V <= 0 || s.V > 50e6 {
			t.Fatalf("RTP rate %v implausible", s.V)
		}
	}
}

// Explicit no-warmup records from the very first frames.
func TestNoWarmupRecordsEarly(t *testing.T) {
	res := run(t, Config{Duration: 10 * time.Second, Seed: 35, StatsWarmup: -1})
	if len(res.ROILevels) == 0 {
		t.Fatal("no samples")
	}
	if res.ROILevels[0].At > time.Second {
		t.Fatalf("first sample at %v — warmup not disabled", res.ROILevels[0].At)
	}
}

// ROI prediction keeps the session deterministic and functional.
func TestROIPredictionRuns(t *testing.T) {
	cfg := Config{Duration: 15 * time.Second, Seed: 36, ROIPrediction: true, User: headmotion.Users[3]}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.PSNRSummary().Mean != b.PSNRSummary().Mean {
		t.Fatal("prediction broke determinism")
	}
	if a.FramesDelivered == 0 {
		t.Fatal("prediction session delivered nothing")
	}
}

// The mismatch samples fed back must be bounded by the session length.
func TestMismatchBounded(t *testing.T) {
	dur := 20 * time.Second
	res := run(t, Config{Duration: dur, Seed: 37, Cell: lte.ProfileBusy})
	for _, m := range res.Mismatch {
		if m.V < 0 || m.V > dur.Seconds() {
			t.Fatalf("mismatch sample %v out of bounds", m.V)
		}
	}
}

// Throughput can never exceed the configured raw stream rate for long.
func TestThroughputBoundedByRawRate(t *testing.T) {
	res := run(t, Config{Duration: 30 * time.Second, Seed: 38, Network: Wireline})
	raw := video.RawBitsPerSec
	over := 0
	for _, thr := range res.Throughput {
		if thr > raw*1.05 {
			over++
		}
	}
	if over > 0 {
		t.Fatalf("%d seconds above the raw stream rate", over)
	}
}

// Delay percentiles must be ordered and above the floor set by the
// pipeline plus propagation.
func TestDelayFloor(t *testing.T) {
	res := run(t, Config{Duration: 20 * time.Second, Seed: 39})
	d := res.DelaySummary()
	if !(d.Min <= d.Median && d.Median <= d.P90 && d.P90 <= d.Max) {
		t.Fatalf("delay percentiles disordered: %+v", d)
	}
	floor := float64(res.Config.PipelineDelay / time.Millisecond)
	if d.Min < floor {
		t.Fatalf("delay %v ms below the %v ms pipeline floor", d.Min, floor)
	}
}
