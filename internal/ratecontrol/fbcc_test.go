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

// feedDiag feeds f one diag report per buffer level, 40 ms apart after
// at, each carrying tbsBits, and returns the last report's instant.
func feedDiag(f *FBCC, at time.Duration, tbsBits float64, bufs ...int) time.Duration {
	for _, b := range bufs {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, b, tbsBits))
	}
	return at
}

// levels is n reports at buffer level b, then each of the more.
func levels(n, b int, more ...int) []int {
	out := make([]int, n, n+len(more))
	for i := range out {
		out[i] = b
	}
	return append(out, more...)
}

// TestFBCCDetector feeds Eq. 3's detector a warm-up at a flat level, which
// must not congest it, then a tape of buffer levels (reports every 40 ms,
// 4 Mbit/s granted), and holds it to whether it congests, how often it
// fires and, where given, its longest rising streak.
func TestFBCCDetector(t *testing.T) {
	ramp := func(from, step, n int) (out []int) {
		for i := 1; i <= n; i++ {
			out = append(out, from+i*step)
		}
		return out
	}
	var dips, isolated []int
	for i, buf := 0, 2000; i < 200; i++ {
		if i%4 == 3 {
			buf -= 2000
		} else {
			buf += 1500
		}
		dips = append(dips, buf)
	}
	for i, buf := 1, 1000; i <= 16; i++ {
		if i == 7 {
			buf -= 200
		} else {
			buf += 1500
		}
		isolated = append(isolated, buf)
	}
	for _, r := range []struct {
		name      string
		k         int
		warm      []int
		tape      []int
		congested bool
		overuses  int // -1: any positive count
		streak    int // 0: not checked
	}{
		{"monotone growth", 0, levels(50, 2000), ramp(2000, 1500, 15), true, -1, 0},
		// A dip every fourth report: the slack of 2 dips lets the streak
		// reach 9, and the third resets it before K.
		{"dips reset the streak", 0, nil, dips, false, 0, 9},
		// The slack stays below K: with K = 2 one dip is tolerated, two
		// are not.
		{"K=2, one dip", 2, levels(50, 20000), []int{30000, 25000, 35000}, true, 1, 0},
		{"K=2, two dips", 2, levels(50, 20000), []int{30000, 25000, 24000, 35000}, false, 0, 0},
		{"an isolated dip is tolerated", 0, levels(50, 1000), isolated, true, -1, 0},
		{"growth below Γ", 0, levels(100, 50000), ramp(100, 10, 15), false, 0, 0},
	} {
		t.Run(r.name, func(t *testing.T) {
			cfg := DefaultFBCCConfig(150 * time.Millisecond)
			if r.k > 0 {
				cfg.K = r.k
			}
			f, err := NewFBCC(cfg)
			if err != nil {
				t.Fatal(err)
			}
			at := feedDiag(f, 0, 1.6e5, r.warm...)
			if f.congested {
				t.Fatalf("%s: the flat warm-up congested", r.name)
			}
			streak := 0
			for _, b := range r.tape {
				at = feedDiag(f, at, 1.6e5, b)
				streak = max(streak, f.streak)
			}
			if f.congested != r.congested || r.overuses >= 0 && f.Overuses() != r.overuses || r.overuses < 0 && f.Overuses() == 0 ||
				r.streak > 0 && streak != r.streak {
				t.Fatalf("%s: congested %v, %d overuses, longest streak %d; want %v, %d, %d", r.name, f.congested, f.Overuses(), streak,
					r.congested, r.overuses, r.streak)
			}
		})
	}
}

func TestFBCCBandwidthEstimate(t *testing.T) {
	f := defFBCC(t)
	if f.BandwidthEstimate() != 0 {
		t.Fatal("empty estimate should be 0")
	}
	feedDiag(f, 0, 1.2e5, levels(10, 5000)...) // 1.2e5 bits per 40 ms
	if got := f.BandwidthEstimate(); math.Abs(got-3e6) > 1e3 {
		t.Fatalf("bandwidth estimate %v, want 3e6", got)
	}
}

// Eq. 6: during the 2-RTT hold the video rate is the measured bandwidth,
// after it the GCC rate applies again.
func TestFBCCVideoRateHold(t *testing.T) {
	f := defFBCC(t)
	at := congest(t, f) // at 3 Mbit/s
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
	at = feedDiag(f, at, 0, levels(50, 1<<20)...)
	if f.RTPRate() < 1e6 {
		t.Fatalf("RTP rate %v fell below the video-rate floor", f.RTPRate())
	}
}

func TestFBCCRTPRateClamped(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	at = feedDiag(f, at, 0, levels(100, 0)...)
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
