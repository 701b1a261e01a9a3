package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"poi360/internal/lte"
	"poi360/internal/simclock"
)

// Property: a rate-limited queue never finishes a workload faster than
// wire time, and always finishes it eventually.
func TestPropertyQueueWireTime(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 200 {
			return true
		}
		clk := simclock.New()
		delivered := 0
		var last time.Duration
		q := NewQueue(clk, 1e6, 1<<30, func(any) {
			delivered++
			last = clk.Now()
		})
		total := 0
		for _, sz := range sizes {
			b := int(sz)%1400 + 1
			q.Send(b, nil)
			total += b
		}
		clk.Run(time.Hour)
		if delivered != len(sizes) {
			return false
		}
		wire := time.Duration(float64(total) * 8 / 1e6 * float64(time.Second))
		return last >= wire-time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the delay link preserves order for any jitter realization.
func TestPropertyDelayLinkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 30; iter++ {
		clk := simclock.New()
		var got []int
		l := NewDelayLink(clk, rng.Int63(),
			time.Duration(rng.Intn(80))*time.Millisecond,
			time.Duration(rng.Intn(40))*time.Millisecond,
			rng.Float64()*0.3,
			time.Duration(rng.Intn(400))*time.Millisecond,
			func(p any) { got = append(got, p.(int)) })
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			i := i
			clk.Schedule(time.Duration(i)*3*time.Millisecond, func() { l.Send(i) })
		}
		clk.Run(time.Minute)
		if len(got) != n {
			t.Fatalf("iter %d: delivered %d of %d", iter, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("iter %d: reordered at %d", iter, i)
			}
		}
	}
}

// Competing load through a shared queue delays the session traffic: a
// plain 4 Mbit/s ticker (2 500 B every 5 ms) stands in for the cross
// traffic.
func TestCrossTrafficAddsDelay(t *testing.T) {
	oneWay := func(withCross bool) time.Duration {
		clk := simclock.New()
		var sum time.Duration
		var n int
		q := NewQueue(clk, 5e6, 1<<20, nil)
		if withCross {
			clk.Ticker(5*time.Millisecond, func() { q.Send(2500, nil) })
		}
		// Probe off-phase from the cross source's 5 ms ticks so the
		// samples see the competing backlog.
		clk.Ticker(7*time.Millisecond, func() {
			q.Send(1200, nil)
			sum += q.busyUntil - clk.Now() // the delay a message sent now would see
			n++
		})
		clk.Run(5 * time.Second)
		return sum / time.Duration(n)
	}
	idle := oneWay(false)
	busy := oneWay(true)
	if busy <= idle {
		t.Fatalf("cross traffic should add queueing delay: idle %v, busy %v", idle, busy)
	}
}

// The cellular transport surfaces modem drops as Send failures once the
// firmware buffer cap is exceeded.
func TestCellularBackpressure(t *testing.T) {
	clk := simclock.New()
	cfg := lte.DefaultConfig(lte.ProfileWeak)
	cfg.BufferCapBytes = 8 * 1024
	c, err := NewCellular(clk, cfg, CellularPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; i < 20; i++ {
		if !c.Send(1200, i) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("overfilling the modem buffer never rejected a packet")
	}
	if c.UE.BufferBytes() > cfg.BufferCapBytes {
		t.Fatal("buffer exceeded its cap")
	}
}
