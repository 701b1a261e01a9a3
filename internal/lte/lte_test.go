package lte

import (
	"math"
	"math/rand"
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
	t.Run("Clamps", func(t *testing.T) {
		if BaseCapacity(-200) != BaseCapacity(-120) || BaseCapacity(0) != BaseCapacity(-60) {
			t.Fatal("BaseCapacity does not clamp")
		}
	})
	t.Run("Monotone", func(t *testing.T) {
		f := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				return true
			}
			return BaseCapacity(min(a, b)) <= BaseCapacity(max(a, b))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("BaseCapacity not monotone: %v", err)
		}
	})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(ProfileStrongIdle).Validate(); err != nil {
		t.Fatal(err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.BufferCapBytes = 0 },
		func(c *Config) { c.Profile.BackgroundLoad = 1 },
		func(c *Config) { c.BufferCapBytes = -1 },
	} {
		c := DefaultConfig(ProfileStrongIdle)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
		if _, err := NewUplink(simclock.New(), c, nil); err == nil {
			t.Errorf("bad config %d accepted by NewUplink", i)
		}
	}
}

// uplink starts a single-UE uplink on a fresh clock.
func uplink(t *testing.T, cfg Config, deliver func(Packet)) (*simclock.Clock, *Uplink) {
	t.Helper()
	clk := simclock.New()
	u, err := NewUplink(clk, cfg, deliver)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	return clk, u
}

// fillTo tops b up to level bytes every subframe: a backlogged source, or
// a light one below the knee.
func fillTo(clk *simclock.Clock, b interface {
	BufferBytes() int
	Enqueue(Packet) bool
}, level int) {
	clk.Ticker(Subframe, func() {
		if d := level - b.BufferBytes(); d > 0 {
			b.Enqueue(Packet{Bytes: d})
		}
	})
}

// capacities samples the uplink's cell capacity every period until end.
func capacities(t *testing.T, cfg Config, period, end time.Duration) []float64 {
	clk, u := uplink(t, cfg, nil)
	var caps []float64
	clk.Ticker(period, func() { caps = append(caps, u.cell.cap.current) })
	clk.Run(end)
	return caps
}

func TestEnqueueDeliver(t *testing.T) {
	var delivered []Packet
	clk, u := uplink(t, DefaultConfig(ProfileStrongIdle), func(p Packet) { delivered = append(delivered, p) })
	u.Enqueue(Packet{ID: 1, Bytes: 1200})
	u.Enqueue(Packet{ID: 2, Bytes: 1200})
	clk.Run(time.Second)
	if len(delivered) != 2 || delivered[0].ID != 1 || delivered[1].ID != 2 {
		t.Fatalf("delivered %+v, want packets 1 and 2 in order", delivered)
	}
	if u.BufferBytes() != 0 {
		t.Fatalf("buffer not drained: %d", u.BufferBytes())
	}
}

func TestBufferCapDrops(t *testing.T) {
	_, u := uplink(t, DefaultConfig(ProfileStrongIdle), nil)
	big := Packet{Bytes: 400 * 1024}
	if !u.Enqueue(big) || u.Enqueue(big) {
		t.Fatal("want the first large packet accepted and the over-cap one refused")
	}
	if u.ue.dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", u.ue.dropped)
	}
}

// servedAt runs a started uplink of cfg, its buffer topped up to level
// bytes every subframe, for d and returns the bits it served.
func servedAt(t *testing.T, cfg Config, level int, d time.Duration) float64 {
	clk, u := uplink(t, cfg, nil)
	fillTo(clk, u, level)
	clk.Run(d)
	return u.TotalServedBits()
}

func TestFig5ThroughputVsBufferLevel(t *testing.T) {
	measure := func(level int) float64 {
		return servedAt(t, DefaultConfig(ProfileStrongIdle), level, 20*time.Second) / 20
	}
	low, mid, sat1, sat2 := measure(2*1024), measure(5*1024), measure(12*1024), measure(20*1024)
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

// Diag reports come every 40 ms with no gap, each covering 40 subframes,
// and their TBS sums account for every served bit.
func TestDiagReports(t *testing.T) {
	var reports []DiagReport
	clk, u := uplink(t, DefaultConfig(ProfileStrongIdle), nil)
	u.ue.SetDiagListener(func(r DiagReport) { reports = append(reports, r) })
	clk.Ticker(10*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 3000}) })
	clk.Run(time.Second)
	if len(reports) != 25 {
		t.Fatalf("got %d diag reports in 1s, want 25", len(reports))
	}
	var sum float64
	for i, r := range reports {
		if r.Subframes != 40 || r.At != time.Duration(i+1)*DefaultDiagPeriod {
			t.Fatalf("report %d at %v covers %d subframes, want 40 ending at %v", i, r.At, r.Subframes, time.Duration(i+1)*DefaultDiagPeriod)
		}
		sum += r.SumTBSBits
	}
	if math.Abs(sum-u.TotalServedBits()) > 1 {
		t.Fatalf("diag TBS sum %v != served %v", sum, u.TotalServedBits())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		clk, u := uplink(t, DefaultConfig(CellProfile{RSSdBm: -82, BackgroundLoad: 0.3, SpeedMph: 30, Seed: 9}), nil)
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

// A weak signal serves well below a strong one, and a busy cell below an
// idle one.
func TestWeakSignalSlower(t *testing.T) {
	served := func(p CellProfile) float64 { return servedAt(t, DefaultConfig(p), 20*1024, 10*time.Second) }
	strong, weak, busy := served(ProfileStrongIdle), served(ProfileWeak), served(ProfileBusy)
	if weak >= strong*0.6 {
		t.Fatalf("weak signal (%v) should be well below strong (%v)", weak, strong)
	}
	if busy >= strong {
		t.Fatalf("busy cell (%v) should be below idle (%v)", busy, strong)
	}
}

func TestMobilityIncreasesVariance(t *testing.T) {
	variance := func(speed float64) float64 {
		samples := capacities(t, DefaultConfig(CellProfile{RSSdBm: -73, BackgroundLoad: 0.08, SpeedMph: speed, Seed: 4}), 100*time.Millisecond, 60*time.Second)
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
	if static, highway := variance(0), variance(50); highway <= static {
		t.Fatalf("mobility should raise capacity variance: static %v, highway %v", static, highway)
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, u := uplink(t, DefaultConfig(ProfileStrongIdle), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	u.Start()
}

func TestPartialPacketService(t *testing.T) {
	// One huge packet must take multiple subframes and be delivered once.
	var delivered int
	clk, u := uplink(t, DefaultConfig(ProfileStrongIdle), func(Packet) { delivered++ })
	u.Enqueue(Packet{Bytes: 50 * 1024}) // ≈ 0.4 Mbit ≈ 100 ms at 4 Mbps
	clk.Run(40 * time.Millisecond)
	if delivered != 0 || u.BufferBytes() >= 50*1024 {
		t.Fatalf("after 40 ms: %d delivered, %d bytes buffered; want none delivered and some served", delivered, u.BufferBytes())
	}
	clk.Run(3 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

// A scripted capacity fault scales the instantaneous cell capacity inside
// its window and releases it exactly at the (exclusive) end; it composes
// multiplicatively with the stochastic process: the same seed at a
// constant 0.5 factor is exactly half the capacity trajectory.
func TestFaultCapacityOverrideWindows(t *testing.T) {
	cfg := DefaultConfig(ProfileStrongIdle)
	cfg.CapacityFault = window(2*time.Second, 3*time.Second, 0.05)
	caps := capacities(t, cfg, 10*time.Millisecond, 5*time.Second)
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Sample k is taken at (k+1)·10 ms.
	if before, inside := mean(caps[:199]), mean(caps[199:299]); inside > 0.1*before {
		t.Fatalf("faulted capacity %.0f not cut vs clean %.0f", inside, before)
	}

	clean := capacities(t, DefaultConfig(ProfileCampus), 100*time.Millisecond, 2*time.Second)
	cfg = DefaultConfig(ProfileCampus)
	cfg.CapacityFault = func(time.Duration) float64 { return 0.5 }
	halved := capacities(t, cfg, 100*time.Millisecond, 2*time.Second)
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
	cfg := DefaultConfig(ProfileStrongIdle)
	from, until := 1*time.Second, 2*time.Second
	cfg.DiagFault = func(at time.Duration) bool { return at >= from && at < until }
	clk, u := uplink(t, cfg, nil)
	var got []time.Duration
	u.ue.SetDiagListener(func(r DiagReport) { got = append(got, r.At) })
	clk.Run(3 * time.Second)
	for _, at := range got {
		if at >= from && at < until {
			t.Fatalf("report at %v leaked through the stall window", at)
		}
	}
	// 3 s of 40 ms reports = 75; the [1 s, 2 s) window hides 25 of them.
	if len(got) != 50 || u.ue.DiagStalled() != 25 {
		t.Fatalf("got %d reports and %d stalled, want 50 and 25", len(got), u.ue.DiagStalled())
	}
}

// Leftover fractional grant credit must not survive a buffer-empty idle
// period — the first grant after an idle gap serves only its own bytes —
// but it accumulates across subframes while the buffer is non-empty (the
// behaviour the credit exists for).
func TestUplinkCredit(t *testing.T) {
	t.Run("ClearedOnDrain", func(t *testing.T) {
		_, u := uplink(t, DefaultConfig(ProfileStrongIdle), nil)
		u.Enqueue(Packet{Bytes: 100})
		u.ue.serve(100*8+7, 0) // 100 bytes + 7 bits of fractional credit
		if u.BufferBytes() != 0 || u.ue.credit != 0 {
			t.Fatalf("after the drain: %d bytes buffered, credit %v; want 0 and 0", u.BufferBytes(), u.ue.credit)
		}
		before := u.TotalServedBits()
		u.Enqueue(Packet{Bytes: 100})
		u.ue.serve(100*8, 0)
		if got := u.TotalServedBits() - before; got != 800 || u.ue.credit != 0 {
			t.Fatalf("second busy period served %v bits leaving credit %v, want exactly 800 and 0", got, u.ue.credit)
		}
	})
	t.Run("AccumulatesWhileBusy", func(t *testing.T) {
		_, u := uplink(t, DefaultConfig(ProfileStrongIdle), nil)
		u.Enqueue(Packet{Bytes: 100})
		u.ue.serve(4, 0) // half a byte
		if u.ue.credit != 0.5 {
			t.Fatalf("credit = %v, want 0.5", u.ue.credit)
		}
		u.ue.serve(4, 0) // second half → one whole byte served
		if u.ue.credit != 0 || u.BufferBytes() != 99 {
			t.Fatalf("credit %v, buffer %d; want 0 and 99 after the byte completes", u.ue.credit, u.BufferBytes())
		}
	})
}

// Conservation: enqueued bytes = delivered + still buffered + the head
// packet's served part (less than one packet), and delivery is in enqueue
// order.
func TestByteConservation(t *testing.T) {
	var delivered int
	var order []int64
	clk, u := uplink(t, DefaultConfig(ProfileModerate), func(p Packet) {
		delivered += p.Bytes
		order = append(order, p.ID)
	})
	rng := rand.New(rand.NewSource(3))
	enqueued, id := 0, int64(0)
	clk.Ticker(7*time.Millisecond, func() {
		b := 200 + rng.Intn(3000)
		if u.Enqueue(Packet{ID: id, Bytes: b}) {
			enqueued += b
			id++
		}
	})
	clk.Run(20 * time.Second)
	if held := delivered + u.BufferBytes(); held > enqueued || enqueued-held > 4000 {
		t.Fatalf("enqueued %d, delivered %d, buffered %d", enqueued, delivered, u.BufferBytes())
	}
	for i := range order {
		if order[i] != int64(i) {
			t.Fatalf("delivery %d is packet %d", i, order[i])
		}
	}
	if len(order) < 100 {
		t.Fatalf("only %d deliveries", len(order))
	}
}

// Work conservation bound: the uplink can never serve more than ~capacity
// × time (allowing grant-noise slack).
func TestServedBoundedByCapacity(t *testing.T) {
	if got, bound := servedAt(t, DefaultConfig(ProfileStrongIdle), 64*1024, 30*time.Second), BaseCapacity(ProfileStrongIdle.RSSdBm)*30*1.2; got > bound {
		t.Fatalf("served %v bits > capacity bound %v", got, bound)
	}
}

// An outage-heavy profile must not wedge the link permanently: after the
// capacity returns, the backlog drains.
func TestRecoversAfterOutages(t *testing.T) {
	clk, u := uplink(t, DefaultConfig(CellProfile{RSSdBm: -73, BackgroundLoad: 0.1, SpeedMph: 60, Seed: 12}), nil)
	stop := clk.Ticker(10*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 3000}) })
	clk.Run(60 * time.Second)
	stop()
	clk.Run(90 * time.Second)
	if u.BufferBytes() != 0 {
		t.Fatalf("buffer did not drain after load stopped: %d bytes", u.BufferBytes())
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
