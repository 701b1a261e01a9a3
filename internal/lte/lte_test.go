package lte

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"poi360/internal/simclock"
)

func TestBaseCapacityAnchors(t *testing.T) {
	cases := []struct{ rss, want float64 }{
		{-115, 1.6e6}, {-82, 3.2e6}, {-73, 4.6e6},
	}
	for _, c := range cases {
		if got := BaseCapacity(c.rss); math.Abs(got-c.want) > 1 {
			t.Errorf("BaseCapacity(%v) = %v, want %v", c.rss, got, c.want)
		}
	}
}

func TestBaseCapacityMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return BaseCapacity(lo) <= BaseCapacity(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBaseCapacityClamps(t *testing.T) {
	if BaseCapacity(-200) != BaseCapacity(-120) {
		t.Fatal("low clamp broken")
	}
	if BaseCapacity(0) != BaseCapacity(-60) {
		t.Fatal("high clamp broken")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(ProfileStrongIdle)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.BufferCapBytes = 0 },
		func(c *Config) { c.Profile.BackgroundLoad = 1 },
	}
	for i, mut := range bads {
		c := DefaultConfig(ProfileStrongIdle)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func newTestUplink(t *testing.T, p CellProfile, deliver func(Packet)) (*simclock.Clock, *Uplink) {
	t.Helper()
	clk := simclock.New()
	u, err := NewUplink(clk, DefaultConfig(p), deliver)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	return clk, u
}

func TestEnqueueDeliver(t *testing.T) {
	var delivered []Packet
	clk, u := newTestUplink(t, ProfileStrongIdle, func(p Packet) { delivered = append(delivered, p) })
	u.Enqueue(Packet{ID: 1, Bytes: 1200})
	u.Enqueue(Packet{ID: 2, Bytes: 1200})
	clk.Run(time.Second)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	if delivered[0].ID != 1 || delivered[1].ID != 2 {
		t.Fatalf("out of order: %+v", delivered)
	}
	if u.BufferBytes() != 0 {
		t.Fatalf("buffer not drained: %d", u.BufferBytes())
	}
}

func TestBufferCapDrops(t *testing.T) {
	clk, u := newTestUplink(t, ProfileStrongIdle, nil)
	_ = clk
	big := Packet{Bytes: 400 * 1024}
	if !u.Enqueue(big) {
		t.Fatal("first large packet rejected")
	}
	if u.Enqueue(big) {
		t.Fatal("over-cap packet accepted")
	}
	if u.ue.dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", u.ue.dropped)
	}
}

func TestFig5ThroughputVsBufferLevel(t *testing.T) {
	measure := func(level int) float64 {
		clk := simclock.New()
		cfg := DefaultConfig(ProfileStrongIdle)
		u, err := NewUplink(clk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		u.Start()
		// Refill the buffer to the target level every subframe.
		clk.Ticker(Subframe, func() {
			if d := level - u.BufferBytes(); d > 0 {
				u.Enqueue(Packet{Bytes: d})
			}
		})
		clk.Run(20 * time.Second)
		return u.TotalServedBits() / 20
	}
	low := measure(2 * 1024)
	mid := measure(5 * 1024)
	sat1 := measure(12 * 1024)
	sat2 := measure(20 * 1024)
	if !(low < mid && mid < sat1) {
		t.Fatalf("throughput should grow below knee: %v %v %v", low, mid, sat1)
	}
	if math.Abs(sat1-sat2)/sat1 > 0.1 {
		t.Fatalf("throughput should saturate: %v vs %v", sat1, sat2)
	}
	// Saturated rate should be near the profile capacity (±25%).
	want := BaseCapacity(ProfileStrongIdle.RSSdBm) * (1 - ProfileStrongIdle.BackgroundLoad)
	if sat1 < want*0.7 || sat1 > want*1.25 {
		t.Fatalf("saturated throughput %v, want near %v", sat1, want)
	}
}

func TestDiagReports(t *testing.T) {
	var reports []DiagReport
	clk, u := newTestUplink(t, ProfileStrongIdle, nil)
	u.ue.SetDiagListener(func(r DiagReport) { reports = append(reports, r) })
	clk.Ticker(10*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 3000}) })
	clk.Run(time.Second)
	if len(reports) != 25 {
		t.Fatalf("got %d diag reports in 1s, want 25", len(reports))
	}
	var sum float64
	for i, r := range reports {
		if r.Subframes != 40 {
			t.Fatalf("report %d covers %d subframes, want 40", i, r.Subframes)
		}
		sum += r.SumTBSBits
	}
	if math.Abs(sum-u.TotalServedBits()) > 1 {
		t.Fatalf("diag TBS sum %v != served %v", sum, u.TotalServedBits())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		clk, u := newTestUplink(t, CellProfile{RSSdBm: -82, BackgroundLoad: 0.3, SpeedMph: 30, Seed: 9}, nil)
		clk.Ticker(5*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 2000}) })
		clk.Run(5 * time.Second)
		return u.TotalServedBits(), u.BufferBytes()
	}
	b1, q1 := run()
	b2, q2 := run()
	if b1 != b2 || q1 != q2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", b1, q1, b2, q2)
	}
}

func TestWeakSignalSlower(t *testing.T) {
	served := func(p CellProfile) float64 {
		clk, u := newTestUplink(t, p, nil)
		clk.Ticker(Subframe, func() {
			if d := 20*1024 - u.BufferBytes(); d > 0 {
				u.Enqueue(Packet{Bytes: d})
			}
		})
		clk.Run(10 * time.Second)
		return u.TotalServedBits()
	}
	strong := served(ProfileStrongIdle)
	weak := served(ProfileWeak)
	if weak >= strong*0.6 {
		t.Fatalf("weak signal (%v) should be well below strong (%v)", weak, strong)
	}
}

func TestBusyCellSlower(t *testing.T) {
	served := func(p CellProfile) float64 {
		clk, u := newTestUplink(t, p, nil)
		clk.Ticker(Subframe, func() {
			if d := 20*1024 - u.BufferBytes(); d > 0 {
				u.Enqueue(Packet{Bytes: d})
			}
		})
		clk.Run(10 * time.Second)
		return u.TotalServedBits()
	}
	idle := served(ProfileStrongIdle)
	busy := served(ProfileBusy)
	if busy >= idle {
		t.Fatalf("busy cell (%v) should be below idle (%v)", busy, idle)
	}
}

func TestMobilityIncreasesVariance(t *testing.T) {
	variance := func(speed float64) float64 {
		clk := simclock.New()
		p := CellProfile{RSSdBm: -73, BackgroundLoad: 0.08, SpeedMph: speed, Seed: 4}
		u, err := NewUplink(clk, DefaultConfig(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		u.Start()
		var samples []float64
		clk.Ticker(100*time.Millisecond, func() { samples = append(samples, u.cell.cap.current) })
		clk.Run(60 * time.Second)
		mean, m2 := 0.0, 0.0
		for _, s := range samples {
			mean += s
		}
		mean /= float64(len(samples))
		for _, s := range samples {
			m2 += (s - mean) * (s - mean)
		}
		return m2 / float64(len(samples)) / (mean * mean) // squared CoV
	}
	static := variance(0)
	highway := variance(50)
	if highway <= static {
		t.Fatalf("mobility should raise capacity variance: static %v, highway %v", static, highway)
	}
}

func TestStartTwicePanics(t *testing.T) {
	clk := simclock.New()
	u, err := NewUplink(clk, DefaultConfig(ProfileStrongIdle), nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	u.Start()
}

func TestNewUplinkRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(ProfileStrongIdle)
	cfg.BufferCapBytes = -1
	if _, err := NewUplink(simclock.New(), cfg, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestPartialPacketService(t *testing.T) {
	// One huge packet must take multiple subframes and be delivered once.
	var delivered int
	clk, u := newTestUplink(t, ProfileStrongIdle, func(Packet) { delivered++ })
	u.Enqueue(Packet{Bytes: 50 * 1024}) // ≈ 0.4 Mbit ≈ 100 ms at 4 Mbps
	clk.Run(40 * time.Millisecond)
	if delivered != 0 {
		t.Fatal("packet delivered too early")
	}
	if u.BufferBytes() >= 50*1024 {
		t.Fatal("no service happened")
	}
	clk.Run(3 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func BenchmarkUplinkSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clk := simclock.New()
		u, _ := NewUplink(clk, DefaultConfig(ProfileStrongIdle), nil)
		u.Start()
		clk.Ticker(10*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 4000}) })
		clk.Run(time.Second)
	}
}
