package ratecontrol

import (
	"math"
	"testing"
	"time"

	"poi360/internal/lte"
)

func defFBCC(t *testing.T) *FBCC {
	t.Helper()
	f, err := NewFBCC(DefaultFBCCConfig(150 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func report(at time.Duration, buf int, tbsBits float64) lte.DiagReport {
	return lte.DiagReport{At: at, BufferBytes: buf, SumTBSBits: tbsBits, Subframes: 40}
}

func TestFBCCConfigValidate(t *testing.T) {
	if err := DefaultFBCCConfig(100 * time.Millisecond).Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*FBCCConfig){
		func(c *FBCCConfig) { c.K = 1 },
		func(c *FBCCConfig) { c.Hold = 0 },
		func(c *FBCCConfig) { c.Hold = -time.Millisecond },
		func(c *FBCCConfig) { c.WatchdogReports = -1 },
	}
	for i, m := range muts {
		c := DefaultFBCCConfig(100 * time.Millisecond)
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

// Eq. 3: K consecutive buffer increases with B above its long-term mean
// fires the detector.
func TestFBCCDetectsMonotoneGrowth(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	// Establish a low long-term mean.
	for i := 0; i < 50; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 2000, 1.6e5))
	}
	if f.congested {
		t.Fatal("flat buffer should not congest")
	}
	// Monotone growth through the mean.
	for i := 1; i <= 15; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 2000+i*1500, 1.6e5))
	}
	if !f.congested {
		t.Fatal("monotone growth did not trigger congestion")
	}
	if f.Overuses() == 0 {
		t.Fatal("overuse counter did not move")
	}
}

// The streak must reset on the dip after the slack is spent: a sawtooth
// of three increases and a dip reaches a streak of 9 (two dips absorbed)
// and is reset by the third dip, so K = 10 never fires.
func TestFBCCDipsResetStreak(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	buf := 2000
	maxStreak := 0
	for i := 0; i < 200; i++ {
		at += 40 * time.Millisecond
		if i%4 == 3 {
			buf -= 2000
		} else {
			buf += 1500
		}
		f.OnDiag(report(at, buf, 1.6e5))
		maxStreak = max(maxStreak, f.streak)
	}
	if f.congested || f.Overuses() != 0 {
		t.Fatal("a dip every fourth report should never let the streak reach K")
	}
	if maxStreak != 9 {
		t.Fatalf("longest streak %d, want 9 (slack of 2 dips, reset by the third)", maxStreak)
	}
}

// With K = 2 the slack is capped at K−1 = 1: one dip between two increases
// is absorbed, a second one resets the streak.
func TestFBCCSlackCappedBelowK(t *testing.T) {
	for _, tc := range []struct {
		bufs []int
		fire bool
	}{
		{[]int{30000, 25000, 35000}, true},         // +, dip, +
		{[]int{30000, 25000, 24000, 35000}, false}, // +, dip, dip, +
	} {
		cfg := DefaultFBCCConfig(150 * time.Millisecond)
		cfg.K = 2
		f, err := NewFBCC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := time.Duration(0)
		for i := 0; i < 50; i++ {
			at += 40 * time.Millisecond
			f.OnDiag(report(at, 20000, 1.6e5))
		}
		for _, b := range tc.bufs {
			at += 40 * time.Millisecond
			f.OnDiag(report(at, b, 1.6e5))
		}
		if got := f.Overuses() == 1; got != tc.fire {
			t.Errorf("K=2, buffers %v: fired=%v, want %v", tc.bufs, got, tc.fire)
		}
	}
}

// With slack, an isolated dip inside an otherwise growing run still fires.
func TestFBCCSlackToleratesIsolatedDip(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	for i := 0; i < 50; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 1000, 1.6e5))
	}
	buf := 1000
	for i := 1; i <= 16; i++ {
		at += 40 * time.Millisecond
		if i == 7 {
			buf -= 200 // isolated dip
		} else {
			buf += 1500
		}
		f.OnDiag(report(at, buf, 1.6e5))
	}
	if !f.congested {
		t.Fatal("slack detector should tolerate one dip")
	}
}

// Buffer growth below the long-term average Γ must not fire (Eq. 3's
// second condition).
func TestFBCCRequiresAboveAverage(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	// Long history at a very high level pushes Γ up.
	for i := 0; i < 100; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 50000, 1.6e5))
	}
	// Small growth far below Γ.
	for i := 1; i <= 15; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 100+i*10, 1.6e5))
	}
	if f.congested {
		t.Fatal("growth below Γ should not congest")
	}
}

func TestFBCCBandwidthEstimate(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 5000, 1.2e5)) // 1.2e5 bits / 40ms = 3 Mbps
	}
	got := f.BandwidthEstimate()
	if math.Abs(got-3e6) > 1e3 {
		t.Fatalf("bandwidth estimate %v, want 3e6", got)
	}
}

func TestFBCCBandwidthEstimateEmpty(t *testing.T) {
	f := defFBCC(t)
	if f.BandwidthEstimate() != 0 {
		t.Fatal("empty estimate should be 0")
	}
}

// Eq. 6: during the 2-RTT hold the video rate is the measured bandwidth,
// after it the GCC rate applies again.
func TestFBCCVideoRateHold(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	for i := 0; i < 50; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 2000, 1.2e5)) // 3 Mbps
	}
	for i := 1; i <= 15; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 2000+i*2000, 1.2e5))
	}
	if !f.congested {
		t.Fatal("setup failed to congest")
	}
	rgcc := 5e6
	during := f.VideoRate(at, rgcc)
	if math.Abs(during-3e6) > 2e5 {
		t.Fatalf("held rate %v, want ≈3e6 (bandwidth), not rgcc", during)
	}
	after := f.VideoRate(at+2*150*time.Millisecond+time.Millisecond, rgcc)
	if after != rgcc {
		t.Fatalf("post-hold rate %v, want rgcc %v", after, rgcc)
	}
}

func TestFBCCVideoRateFloor(t *testing.T) {
	f := defFBCC(t)
	if got := f.VideoRate(0, 1); got != minVideoRate {
		t.Fatalf("floor not applied: %v", got)
	}
}

// Eq. 7: buffer below target raises the RTP rate; above target it trims the
// rate, but never below the source video bitrate (§4.3.1: throttling the
// transport below the source would just relocate the queue).
func TestFBCCRTPRateSteering(t *testing.T) {
	f := defFBCC(t)
	f.SetVideoRate(1e6)
	r0 := f.RTPRate()
	f.OnDiag(report(40*time.Millisecond, 0, 0)) // empty buffer, below B*
	if f.RTPRate() <= r0 {
		t.Fatalf("empty buffer should raise RTP rate: %v → %v", r0, f.RTPRate())
	}
	r1 := f.RTPRate()
	f.OnDiag(report(80*time.Millisecond, 100000, 0)) // far above B*
	if f.RTPRate() >= r1 {
		t.Fatalf("bloated buffer should trim RTP rate: %v → %v", r1, f.RTPRate())
	}
	// Sustained bloat cannot push the pacing rate below the video bitrate.
	at := 120 * time.Millisecond
	for i := 0; i < 50; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 1<<20, 0))
	}
	if f.RTPRate() < 1e6 {
		t.Fatalf("RTP rate %v fell below the video-rate floor", f.RTPRate())
	}
}

func TestFBCCRTPRateClamped(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 0, 0))
	}
	if f.RTPRate() > maxRTPRate {
		t.Fatalf("RTP rate %v exceeds cap", f.RTPRate())
	}
}

// The sweet-spot estimator must learn the knee of a synthetic linear-then-
// flat curve.
func TestSweetSpotLearnsKnee(t *testing.T) {
	var s sweetSpotEstimator
	knee := 12 * 1024.0
	max := 4e6
	for pass := 0; pass < 30; pass++ {
		for buf := 1024.0; buf < 30*1024; buf += 1024 {
			rate := max * math.Min(1, buf/knee)
			s.observe(buf, rate)
		}
	}
	got := s.target()
	if got < knee*0.8 || got > knee*1.4 {
		t.Fatalf("learned knee %v, want ≈%v", got, knee)
	}
}

func TestSweetSpotFallback(t *testing.T) {
	var s sweetSpotEstimator
	if s.target() != 8*1024 {
		t.Fatalf("fallback = %v", s.target())
	}
	s.observe(-1, 5)  // ignored
	s.observe(100, 0) // ignored
	if s.target() != 8*1024 {
		t.Fatal("invalid observations changed the target")
	}
}

func TestFBCCTargetBufferUsesMargin(t *testing.T) {
	f := defFBCC(t)
	want := initialTargetBuffer * targetMargin
	if got := f.TargetBuffer(); math.Abs(got-want) > 1 {
		t.Fatalf("TargetBuffer = %v, want %v", got, want)
	}
}

func TestFBCCLongTermBuffer(t *testing.T) {
	f := defFBCC(t)
	f.OnDiag(report(40*time.Millisecond, 1000, 1e5))
	f.OnDiag(report(80*time.Millisecond, 3000, 1e5))
	if got := f.longTerm.Mean(); got != 2000 {
		t.Fatalf("Γ = %v, want 2000", got)
	}
}

func BenchmarkFBCCOnDiag(b *testing.B) {
	f, _ := NewFBCC(DefaultFBCCConfig(150 * time.Millisecond))
	for i := 0; i < b.N; i++ {
		f.OnDiag(report(time.Duration(i)*40*time.Millisecond, 2000+(i%20)*500, 1.2e5))
	}
}
