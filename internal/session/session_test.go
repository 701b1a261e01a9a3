package session

import (
	"testing"
	"time"

	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasicCellular(t *testing.T) {
	res := run(t, Config{Duration: 30 * time.Second, Seed: 1})
	// 30 s duration minus the 5 s stats warmup at 30 fps.
	if res.FramesSent < 700 {
		t.Fatalf("sent %d frames in 30s post-warmup window", res.FramesSent)
	}
	if res.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
	if res.FramesDelivered > res.FramesSent {
		t.Fatal("delivered more than sent")
	}
	if len(res.ROIPSNRs) != len(res.FrameDelays) {
		t.Fatal("metric vectors out of sync")
	}
	if len(res.Diag) == 0 {
		t.Fatal("no diag samples on cellular")
	}
	for _, d := range res.FrameDelays {
		if d < 0 {
			t.Fatal("negative frame delay")
		}
	}
	// The video quality curve spans 8–42 dB; content jitter may lift a
	// frame at most 3 dB above its ceiling.
	for _, p := range res.ROIPSNRs {
		if p < 8-1 || p > 42+3+1 {
			t.Fatalf("PSNR %v outside model range", p)
		}
	}
}

func TestRunWireline(t *testing.T) {
	res := run(t, Config{Duration: 20 * time.Second, Network: Wireline, Seed: 2})
	if res.FramesDelivered == 0 {
		t.Fatal("no frames delivered")
	}
	if len(res.Diag) != 0 {
		t.Fatal("wireline should have no modem diag")
	}
	// Wireline delays should be mostly small.
	if res.DelaySummary().Median > 400 {
		t.Fatalf("wireline median delay %v ms implausible", res.DelaySummary().Median)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Duration: 10 * time.Second, Seed: 42}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.FramesDelivered != b.FramesDelivered || a.FreezeRatio() != b.FreezeRatio() {
		t.Fatalf("non-deterministic: %d/%v vs %d/%v",
			a.FramesDelivered, a.FreezeRatio(), b.FramesDelivered, b.FreezeRatio())
	}
	if a.PSNRSummary().Mean != b.PSNRSummary().Mean {
		t.Fatal("PSNR differs across identical runs")
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	a := run(t, Config{Duration: 10 * time.Second, Seed: 1})
	b := run(t, Config{Duration: 10 * time.Second, Seed: 2})
	if a.PSNRSummary().Mean == b.PSNRSummary().Mean && a.DelaySummary().Mean == b.DelaySummary().Mean {
		t.Fatal("different seeds produced identical sessions")
	}
}

func TestFBCCOnWirelineRejected(t *testing.T) {
	_, err := Run(Config{Network: Wireline, RC: RCFBCC})
	if err == nil {
		t.Fatal("FBCC over wireline should be rejected")
	}
}

func TestFixedSchemeNeedsC(t *testing.T) {
	_, err := Run(Config{Scheme: SchemeFixed})
	if err == nil {
		t.Fatal("SchemeFixed without C should be rejected")
	}
	res := run(t, Config{Duration: 5 * time.Second, Scheme: SchemeFixed, FixedC: 1.4, Seed: 3})
	if res.FramesDelivered == 0 {
		t.Fatal("fixed scheme delivered nothing")
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, s := range []SchemeKind{SchemeAdaptive, SchemeConduit, SchemePyramid} {
		res := run(t, Config{Duration: 8 * time.Second, Scheme: s, Seed: 4})
		if res.FramesDelivered == 0 {
			t.Fatalf("%v delivered nothing", s)
		}
	}
}

func TestFBCCRunsAndUsesDiag(t *testing.T) {
	res := run(t, Config{Duration: 30 * time.Second, RC: RCFBCC, Seed: 5})
	if res.FramesDelivered == 0 {
		t.Fatal("FBCC session delivered nothing")
	}
	if len(res.RTPRate) == 0 {
		t.Fatal("no RTP rate samples")
	}
	// FBCC's pacer rate must decouple from the video rate at least sometimes.
	diverged := false
	for i := range res.RTPRate {
		if res.RTPRate[i].V != res.VideoRate[i].V {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("FBCC pacer rate never diverged from video rate")
	}
}

func TestKindStrings(t *testing.T) {
	if Cellular.String() != "cellular" || Wireline.String() != "wireline" {
		t.Fatal("network names")
	}
	if SchemeAdaptive.String() != "POI360" || SchemeConduit.String() != "Conduit" ||
		SchemePyramid.String() != "Pyramid" || SchemeFixed.String() != "Fixed" {
		t.Fatal("scheme names")
	}
	if RCGCC.String() != "GCC" || RCFBCC.String() != "FBCC" {
		t.Fatal("rc names")
	}
}

func TestFreezeRatioCountsLost(t *testing.T) {
	r := &Result{
		FrameDelays: []time.Duration{100 * time.Millisecond, 700 * time.Millisecond},
		FramesLost:  2,
	}
	if got := r.FreezeRatio(); got != 0.75 {
		t.Fatalf("FreezeRatio = %v, want 0.75", got)
	}
	empty := &Result{}
	if empty.FreezeRatio() != 0 {
		t.Fatal("empty freeze ratio")
	}
}

func TestStaticViewerConvergesToTopQuality(t *testing.T) {
	res := run(t, Config{
		Duration:  20 * time.Second,
		Seed:      6,
		UserModel: &headmotion.Scripted{Keys: []headmotion.Key{{}}}, // one key: a fixed gaze
	})
	// With a static ROI the sender's belief is always right; late-session
	// frames should be near the quality ceiling permitted by the bitrate.
	n := len(res.ROIPSNRs)
	tail := metrics.Summarize(res.ROIPSNRs[n*3/4:])
	if tail.Mean < 30 {
		t.Fatalf("static viewer tail PSNR %v dB too low", tail.Mean)
	}
}

func TestMismatchFeedbackRecorded(t *testing.T) {
	res := run(t, Config{Duration: 10 * time.Second, Seed: 7, User: headmotion.Users[4]})
	if len(res.Mismatch) == 0 {
		t.Fatal("no mismatch samples")
	}
	any := false
	for _, m := range res.Mismatch {
		if m.V > 0 {
			any = true
		}
		if m.V < 0 {
			t.Fatal("negative mismatch")
		}
	}
	if !any {
		t.Fatal("mismatch never positive")
	}
}

func TestAdaptiveModesMove(t *testing.T) {
	res := run(t, Config{
		Duration: 60 * time.Second,
		Seed:     8,
		User:     headmotion.Users[4],
		Cell:     lte.ProfileBusy,
	})
	seen := map[float64]bool{}
	for _, m := range res.Modes {
		seen[m.V] = true
	}
	if len(seen) < 2 {
		t.Fatalf("adaptive controller never switched modes: %v", seen)
	}
}

func TestThroughputSamplesCover(t *testing.T) {
	res := run(t, Config{Duration: 15 * time.Second, Seed: 9})
	// 15 s minus the 2.5 s warmup: samples at t = 3 s … 15 s.
	if len(res.Throughput) < 12 || len(res.Throughput) > 13 {
		t.Fatalf("throughput samples %d, want 12-13", len(res.Throughput))
	}
}

func TestWeakCellLowersQuality(t *testing.T) {
	strong := run(t, Config{Duration: 40 * time.Second, Seed: 10, Cell: lte.ProfileStrongIdle})
	weak := run(t, Config{Duration: 40 * time.Second, Seed: 10, Cell: lte.ProfileWeak})
	if weak.PSNRSummary().Mean >= strong.PSNRSummary().Mean {
		t.Fatalf("weak cell PSNR %v should be below strong %v",
			weak.PSNRSummary().Mean, strong.PSNRSummary().Mean)
	}
}
