package lte

import (
	"math"
	"testing"
	"time"

	"poi360/internal/simclock"
)

// A scripted capacity fault scales the instantaneous cell capacity inside
// its window and releases it exactly at the (exclusive) end.
func TestFaultCapacityOverrideWindows(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultConfig(ProfileStrongIdle)
	from, until := 2*time.Second, 3*time.Second
	cfg.CapacityFault = func(now time.Duration) float64 {
		if now >= from && now < until {
			return 0.05
		}
		return 1
	}
	u, err := NewUplink(clk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	var inside, before []float64
	clk.Ticker(10*time.Millisecond, func() {
		switch now := clk.Now(); {
		case now >= from && now < until:
			inside = append(inside, u.cell.cap.current)
		case now < from:
			before = append(before, u.cell.cap.current)
		}
	})
	clk.Run(5 * time.Second)
	if len(inside) == 0 || len(before) == 0 {
		t.Fatal("no samples collected")
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := mean(inside); m > 0.1*mean(before) {
		t.Fatalf("faulted capacity %.0f not cut vs clean %.0f", m, mean(before))
	}
}

// The capacity fault composes multiplicatively with the stochastic process:
// the identical seed with a constant 0.5 factor yields exactly half the
// capacity trajectory.
func TestFaultCapacityFactorExact(t *testing.T) {
	run := func(factor float64) []float64 {
		clk := simclock.New()
		cfg := DefaultConfig(ProfileCampus)
		if factor != 1 {
			cfg.CapacityFault = func(time.Duration) float64 { return factor }
		}
		u, err := NewUplink(clk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		u.Start()
		var caps []float64
		clk.Ticker(100*time.Millisecond, func() { caps = append(caps, u.cell.cap.current) })
		clk.Run(2 * time.Second)
		return caps
	}
	clean, halved := run(1), run(0.5)
	if len(clean) != len(halved) || len(clean) == 0 {
		t.Fatalf("sample counts differ: %d vs %d", len(clean), len(halved))
	}
	for i := range clean {
		if math.Abs(halved[i]-0.5*clean[i]) > 1e-6*clean[i] {
			t.Fatalf("sample %d: %v != 0.5×%v", i, halved[i], clean[i])
		}
	}
}

// A scripted diag stall suppresses reports inside its window; reports
// resume on the 40 ms grid afterwards and the stall counter accounts for
// every suppressed report.
func TestFaultDiagStallSuppressesReports(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultConfig(ProfileStrongIdle)
	from, until := 1*time.Second, 2*time.Second
	cfg.DiagFault = func(at time.Duration) bool { return at >= from && at < until }
	u, err := NewUplink(clk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []time.Duration
	u.ue.SetDiagListener(func(r DiagReport) { got = append(got, r.At) })
	u.Start()
	clk.Run(3 * time.Second)

	for _, at := range got {
		if at >= from && at < until {
			t.Fatalf("report at %v leaked through the stall window", at)
		}
	}
	// 3 s of 40 ms reports = 75; the [1 s, 2 s) window hides 25 of them.
	if len(got) != 50 {
		t.Fatalf("got %d reports, want 50", len(got))
	}
	if u.ue.DiagStalled() != 25 {
		t.Fatalf("DiagStalled = %d, want 25", u.ue.DiagStalled())
	}
}

// Satellite regression: leftover fractional grant credit must not survive a
// buffer-empty idle period — the first grant after an idle gap serves only
// its own bytes.
func TestUplinkCreditClearedOnDrain(t *testing.T) {
	clk := simclock.New()
	u, err := NewUplink(clk, DefaultConfig(ProfileStrongIdle), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Serve a packet with a grant that leaves fractional credit behind.
	u.Enqueue(Packet{Bytes: 100})
	u.ue.serve(100*8+7, 0) // 100 bytes + 7 bits of fractional credit
	if u.BufferBytes() != 0 {
		t.Fatalf("buffer should have drained, has %d bytes", u.BufferBytes())
	}
	if u.ue.credit != 0 {
		t.Fatalf("credit %v survived the drain", u.ue.credit)
	}

	// After an idle gap, an identical busy period must account identically:
	// served bits reflect only the enqueued bytes, not inflated by stale
	// credit.
	before := u.TotalServedBits()
	u.Enqueue(Packet{Bytes: 100})
	u.ue.serve(100*8, 0)
	if got := u.TotalServedBits() - before; got != 800 {
		t.Fatalf("second busy period served %v bits, want exactly 800", got)
	}
	if u.ue.credit != 0 {
		t.Fatalf("credit %v left after exact-grant drain", u.ue.credit)
	}
}

// The credit still accumulates across subframes while the buffer is
// non-empty (the behaviour the credit exists for).
func TestUplinkCreditAccumulatesWhileBusy(t *testing.T) {
	clk := simclock.New()
	u, err := NewUplink(clk, DefaultConfig(ProfileStrongIdle), nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Enqueue(Packet{Bytes: 100})
	u.ue.serve(4, 0) // half a byte
	if u.ue.credit != 0.5 {
		t.Fatalf("credit = %v, want 0.5", u.ue.credit)
	}
	u.ue.serve(4, 0) // second half → one whole byte served
	if u.ue.credit != 0 {
		t.Fatalf("credit = %v, want 0 after the byte completes", u.ue.credit)
	}
	if u.BufferBytes() != 99 {
		t.Fatalf("buffer = %d, want 99", u.BufferBytes())
	}
}
