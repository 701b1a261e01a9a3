package session

import (
	"testing"
	"time"

	"poi360/internal/lte"
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

func TestWeakCellLowersQuality(t *testing.T) {
	strong := run(t, Config{Duration: 40 * time.Second, Seed: 10, Cell: lte.ProfileStrongIdle})
	weak := run(t, Config{Duration: 40 * time.Second, Seed: 10, Cell: lte.ProfileWeak})
	if weak.PSNRSummary().Mean >= strong.PSNRSummary().Mean {
		t.Fatalf("weak cell PSNR %v should be below strong %v",
			weak.PSNRSummary().Mean, strong.PSNRSummary().Mean)
	}
}
