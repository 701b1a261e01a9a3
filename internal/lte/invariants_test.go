package lte

import (
	"math/rand"
	"testing"
	"time"

	"poi360/internal/simclock"
)

// Conservation: enqueued bytes = delivered + still buffered + partially
// served head bytes, and nothing is created from thin air.
func TestByteConservation(t *testing.T) {
	clk := simclock.New()
	var deliveredBytes int
	u, err := NewUplink(clk, DefaultConfig(ProfileModerate), func(p Packet) { deliveredBytes += p.Bytes })
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	rng := rand.New(rand.NewSource(3))
	enqueued := 0
	clk.Ticker(7*time.Millisecond, func() {
		b := 200 + rng.Intn(3000)
		if u.Enqueue(Packet{Bytes: b}) {
			enqueued += b
		}
	})
	clk.Run(20 * time.Second)
	// delivered + in-buffer accounts for everything except the head
	// packet's already-served fraction (strictly less than one packet).
	slack := 4000
	if deliveredBytes+u.BufferBytes() > enqueued {
		t.Fatalf("created bytes: delivered %d + buffered %d > enqueued %d",
			deliveredBytes, u.BufferBytes(), enqueued)
	}
	if enqueued-(deliveredBytes+u.BufferBytes()) > slack {
		t.Fatalf("lost bytes: enqueued %d, delivered %d, buffered %d",
			enqueued, deliveredBytes, u.BufferBytes())
	}
}

// Work conservation bound: the uplink can never serve more than ~capacity
// × time (allowing grant-noise slack).
func TestServedBoundedByCapacity(t *testing.T) {
	clk := simclock.New()
	cfg := DefaultConfig(ProfileStrongIdle)
	u, err := NewUplink(clk, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	clk.Ticker(Subframe, func() {
		if d := 64*1024 - u.BufferBytes(); d > 0 {
			u.Enqueue(Packet{Bytes: d})
		}
	})
	dur := 30 * time.Second
	clk.Run(dur)
	bound := BaseCapacity(cfg.Profile.RSSdBm) * dur.Seconds() * 1.2
	if u.TotalServedBits() > bound {
		t.Fatalf("served %v bits > capacity bound %v", u.TotalServedBits(), bound)
	}
}

// FIFO: packets are always delivered in enqueue order.
func TestFIFODelivery(t *testing.T) {
	clk := simclock.New()
	var order []int64
	u, err := NewUplink(clk, DefaultConfig(ProfileModerate), func(p Packet) { order = append(order, p.ID) })
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	var id int64
	rng := rand.New(rand.NewSource(9))
	clk.Ticker(5*time.Millisecond, func() {
		u.Enqueue(Packet{ID: id, Bytes: 100 + rng.Intn(2500)})
		id++
	})
	clk.Run(10 * time.Second)
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("out of order at %d: %d after %d", i, order[i], order[i-1])
		}
	}
	if len(order) < 100 {
		t.Fatalf("only %d deliveries", len(order))
	}
}

// An outage-heavy profile must not wedge the link permanently: after the
// capacity returns, the backlog drains.
func TestRecoversAfterOutages(t *testing.T) {
	clk := simclock.New()
	p := CellProfile{RSSdBm: -73, BackgroundLoad: 0.1, SpeedMph: 60, Seed: 12}
	u, err := NewUplink(clk, DefaultConfig(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	// Load for a minute, then stop and let it drain.
	stop := clk.Ticker(10*time.Millisecond, func() { u.Enqueue(Packet{Bytes: 3000}) })
	clk.Run(60 * time.Second)
	stop()
	clk.Run(90 * time.Second)
	if u.BufferBytes() != 0 {
		t.Fatalf("buffer did not drain after load stopped: %d bytes", u.BufferBytes())
	}
}

// Diag reports always cover the full timeline with no gaps.
func TestDiagContinuity(t *testing.T) {
	clk := simclock.New()
	u, err := NewUplink(clk, DefaultConfig(ProfileStrongIdle), nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	first := true
	u.ue.SetDiagListener(func(r DiagReport) {
		if !first && r.At-prev != DefaultDiagPeriod {
			t.Fatalf("diag gap: %v → %v", prev, r.At)
		}
		prev, first = r.At, false
	})
	u.Start()
	clk.Run(5 * time.Second)
	if first {
		t.Fatal("no diag reports")
	}
}
