package ratecontrol

import (
	"math"
	"testing"
	"time"

	"poi360/internal/lte"
)

// congest drives f into a detected overuse: a long flat history to settle Γ,
// then monotone buffer growth. Returns the time of the last report.
func congest(t *testing.T, f *FBCC) time.Duration {
	t.Helper()
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
	return at
}

// Acceptance: with the watchdog armed, a diag stall that begins while the
// encoder is pinned to Rphy releases the pin within 2× the watchdog timeout
// and falls back to the GCC rate; with the watchdog disabled the controller
// stays pinned to the stale bandwidth for the whole hold.
func TestFaultWatchdogRecoversToGCCWithinTwoTimeouts(t *testing.T) {
	rgcc := 5e6
	mk := func(watchdogReports int) (*FBCC, time.Duration) {
		cfg := DefaultFBCCConfig(150 * time.Millisecond)
		cfg.HoldRTTs = 20 // 3 s hold: the stall happens mid-hold
		cfg.WatchdogReports = watchdogReports
		f, err := NewFBCC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stallStart := congest(t, f) // diag feed goes silent here
		return f, stallStart
	}

	timeout := 5 * lte.DefaultDiagPeriod // 200 ms

	// Watchdog armed: recovered to rgcc within 2× the timeout.
	f, stall := mk(5)
	recovered := time.Duration(-1)
	for d := time.Duration(0); d <= 3*timeout; d += 40 * time.Millisecond {
		now := stall + d
		f.CheckWatchdog(now)
		if f.VideoRate(now, rgcc) == rgcc {
			recovered = d
			break
		}
	}
	if recovered < 0 || recovered > 2*timeout {
		t.Fatalf("watchdog FBCC recovered after %v, want within %v", recovered, 2*timeout)
	}
	if f.Degradations() != 1 || !f.degraded {
		t.Fatalf("degradations = %d, degraded = %v", f.Degradations(), f.degraded)
	}

	// Watchdog disabled: still pinned to the stale Rphy at 2× the timeout
	// (and for the rest of the 3 s hold).
	g, stall2 := mk(0)
	now := stall2 + 2*timeout
	g.CheckWatchdog(now)
	if r := g.VideoRate(now, rgcc); r == rgcc {
		t.Fatalf("watchdog-disabled FBCC unpinned at %v after stall; still inside the hold", 2*timeout)
	}
	if g.Degradations() != 0 {
		t.Fatalf("disabled watchdog fired %d times", g.Degradations())
	}
}

// A fresh diag report re-arms the controller after a degradation: the
// detector state restarts cleanly rather than comparing against a pre-stall
// buffer sample.
func TestFaultWatchdogRearmsOnFreshDiag(t *testing.T) {
	cfg := DefaultFBCCConfig(150 * time.Millisecond)
	f, err := NewFBCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := congest(t, f)
	staleAt := at + 10*time.Second
	if !f.CheckWatchdog(staleAt) {
		t.Fatal("watchdog did not fire after a 10 s stall")
	}
	if f.congested {
		t.Fatal("degradation must clear the congestion latch")
	}
	if f.BandwidthEstimate() != 0 {
		t.Fatal("degradation must flush the stale Eq. 4 window")
	}
	// Reports resume.
	f.OnDiag(report(staleAt+40*time.Millisecond, 3000, 1.2e5))
	if f.degraded {
		t.Fatal("fresh report did not clear the degraded latch")
	}
	if f.CheckWatchdog(staleAt + 80*time.Millisecond) {
		t.Fatal("watchdog still degraded right after a fresh report")
	}
	// One resumed report must not instantly re-fire Eq. 3 against pre-stall
	// state: the streak restarts from scratch.
	if f.streak != 0 {
		t.Fatalf("streak %d after resume, want 0", f.streak)
	}
	if f.Degradations() != 1 {
		t.Fatalf("degradations = %d, want 1", f.Degradations())
	}
}

// The watchdog is inert on a healthy 40 ms feed and before its timeout.
func TestFaultWatchdogInertOnHealthyFeed(t *testing.T) {
	f := defFBCC(t)
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, 2000, 1.2e5))
		if f.CheckWatchdog(at) {
			t.Fatalf("watchdog fired at %v on a healthy feed", at)
		}
	}
	// Silence shorter than the timeout is tolerated.
	if f.CheckWatchdog(at + 5*lte.DefaultDiagPeriod) {
		t.Fatal("watchdog fired exactly at the timeout boundary (must be strictly after)")
	}
	if !f.CheckWatchdog(at + 5*lte.DefaultDiagPeriod + time.Millisecond) {
		t.Fatal("watchdog did not fire past the timeout")
	}
}

// Satellite regression: the hold interval is half-open on the same side in
// both OnDiag (latch release) and VideoRate (rate pin). At the boundary
// instant now == holdUntil the hold is over everywhere.
func TestFBCCHoldBoundaryInstantConsistent(t *testing.T) {
	cfg := DefaultFBCCConfig(150 * time.Millisecond)
	cfg.WatchdogReports = 0 // isolate the hold logic
	f, err := NewFBCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	congest(t, f)
	hold := f.holdUntil
	rgcc := 9e6

	// Strictly inside the hold: pinned to the measured bandwidth.
	if r := f.VideoRate(hold-time.Millisecond, rgcc); r == rgcc {
		t.Fatal("rate not pinned strictly inside the hold")
	}
	// At the boundary instant: VideoRate must release the pin…
	if r := f.VideoRate(hold, rgcc); r != rgcc {
		t.Fatalf("VideoRate(holdUntil) = %v, want rgcc %v (half-open hold)", r, rgcc)
	}
	// …and a diag report at the same instant must clear the latch, so both
	// views of the boundary agree.
	f.OnDiag(report(hold, 100, 1.2e5))
	if f.congested {
		t.Fatal("OnDiag at holdUntil left the congestion latch set")
	}
	if r := f.VideoRate(hold, rgcc); r != rgcc {
		t.Fatalf("post-latch-release VideoRate = %v, want rgcc", r)
	}
}

// Satellite: flat (non-increasing) samples inside a growth run consume
// slack exactly like dips do, and the slack budget resets after the
// detector fires.
func TestFBCCFlatSamplesConsumeSlack(t *testing.T) {
	cfg := DefaultFBCCConfig(150 * time.Millisecond)
	cfg.Slack = 1
	f, err := NewFBCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	feed := func(buf int) {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, buf, 1.2e5))
	}
	for i := 0; i < 50; i++ {
		feed(1000)
	}
	// Growth with two flat samples: the second flat one exhausts slack and
	// resets the streak, so the detector must NOT fire despite 14 reports
	// of net growth.
	buf := 1000
	for i := 1; i <= 14; i++ {
		if i == 5 || i == 9 {
			// flat: repeat the previous level
		} else {
			buf += 2000
		}
		feed(buf)
	}
	if f.congested {
		t.Fatal("two flat samples with Slack=1 should have reset the streak")
	}
	// A single flat sample inside a fresh run is absorbed by slack.
	for i := 1; i <= 14; i++ {
		if i != 5 {
			buf += 2000
		}
		feed(buf)
	}
	if f.Overuses() != 1 {
		t.Fatalf("one flat sample with Slack=1 should not prevent detection: overuses=%d", f.Overuses())
	}
}

func TestFBCCSlackResetsAfterFiring(t *testing.T) {
	f := defFBCC(t) // Slack = 2
	at := time.Duration(0)
	feed := func(buf int) {
		at += 40 * time.Millisecond
		f.OnDiag(report(at, buf, 1.2e5))
	}
	for i := 0; i < 50; i++ {
		feed(1000)
	}
	// 10 growth increments + 2 dips: the detector fires exactly on the
	// 12th report.
	buf := 1000
	for i := 1; i <= 12; i++ {
		if i == 4 || i == 8 { // use up the whole slack budget
			buf -= 100
		} else {
			buf += 2000
		}
		feed(buf)
	}
	if !f.congested || f.Overuses() != 1 {
		t.Fatalf("setup: congested=%v overuses=%d", f.congested, f.Overuses())
	}
	if f.slackUsed != 0 || f.streak != 0 {
		t.Fatalf("firing must reset streak state: slackUsed=%d streak=%d", f.slackUsed, f.streak)
	}
	// The next run gets its full slack budget again: two dips tolerated.
	for i := 1; i <= 12; i++ {
		if i == 4 || i == 8 {
			buf -= 100
		} else {
			buf += 2000
		}
		feed(buf)
	}
	if f.Overuses() != 2 {
		t.Fatalf("second run did not re-fire with a fresh slack budget: overuses=%d", f.Overuses())
	}
}

// Satellite: the learned sweet-spot knee is clamped into
// [fallback, 3×fallback] (fallback = initialTargetBuffer) — a low-buffer
// fluke cannot collapse the target into starvation, an outlier cannot push
// it deep into overuse.
func TestSweetSpotClampsToFallbackRange(t *testing.T) {
	fallback := 8 * 1024.0

	// Knee far below fallback: plateau reached by 2 KB.
	var low sweetSpotEstimator
	for pass := 0; pass < 30; pass++ {
		for buf := 1024.0; buf < 30*1024; buf += 1024 {
			low.observe(buf, 4e6*math.Min(1, buf/(2*1024)))
		}
	}
	if got := low.target(); got != fallback {
		t.Fatalf("low knee target %v, want clamp at fallback %v", got, fallback)
	}

	// Knee far above 3×fallback: rate still growing at 60 KB.
	var high sweetSpotEstimator
	for pass := 0; pass < 30; pass++ {
		for buf := 1024.0; buf < 62*1024; buf += 1024 {
			high.observe(buf, 4e6*math.Min(1, buf/(60*1024)))
		}
	}
	if got, want := high.target(), 3*fallback; got != want {
		t.Fatalf("high knee target %v, want clamp at 3×fallback %v", got, want)
	}
}
