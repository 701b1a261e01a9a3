package netsim

import (
	"testing"
	"time"

	"poi360/internal/lte"
	"poi360/internal/simclock"
)

func TestDelayLinkDelivers(t *testing.T) {
	clk := simclock.New()
	var got []any
	l := NewDelayLink(clk, 1, 50*time.Millisecond, 0, 0, 0, func(p any) { got = append(got, p) })
	l.Send("a")
	clk.Run(49 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivered early")
	}
	clk.Run(51 * time.Millisecond)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v", got)
	}
}

func TestDelayLinkFIFO(t *testing.T) {
	clk := simclock.New()
	var got []int
	// Heavy jitter would reorder without the FIFO guard.
	l := NewDelayLink(clk, 2, 20*time.Millisecond, 15*time.Millisecond, 0.2, 100*time.Millisecond, func(p any) { got = append(got, p.(int)) })
	for i := 0; i < 200; i++ {
		i := i
		clk.Schedule(time.Duration(i)*time.Millisecond, func() { l.Send(i) })
	}
	clk.Run(5 * time.Second)
	if len(got) != 200 {
		t.Fatalf("delivered %d, want 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered at %d: %v", i, v)
		}
	}
}

func TestDelayLinkNegativeDelayClamped(t *testing.T) {
	clk := simclock.New()
	n := 0
	// Jitter std much larger than base → negative samples occur.
	l := NewDelayLink(clk, 3, time.Millisecond, 50*time.Millisecond, 0, 0, func(any) { n++ })
	for i := 0; i < 100; i++ {
		l.Send(i)
	}
	clk.Run(10 * time.Second)
	if n != 100 {
		t.Fatalf("delivered %d, want 100", n)
	}
}

func TestQueueRateLimits(t *testing.T) {
	clk := simclock.New()
	var times []time.Duration
	q := NewQueue(clk, 8000, 1<<20, func(any) { times = append(times, clk.Now()) }) // 1000 B/s
	q.Send(1000, nil)
	q.Send(1000, nil)
	clk.Run(10 * time.Second)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("delivery times %v, want [1s 2s]", times)
	}
}

func TestQueueDropTail(t *testing.T) {
	clk := simclock.New()
	q := NewQueue(clk, 8000, 1500, nil)
	if !q.Send(1000, nil) {
		t.Fatal("first send rejected")
	}
	if q.Send(1000, nil) {
		t.Fatal("over-cap send accepted")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d", q.Dropped())
	}
	if q.bytes != 1000 {
		t.Fatalf("Bytes = %d", q.bytes)
	}
}

func TestQueueDelay(t *testing.T) {
	clk := simclock.New()
	q := NewQueue(clk, 8000, 1<<20, nil)
	if q.busyUntil != 0 {
		t.Fatal("idle queue has delay")
	}
	q.Send(1000, nil) // 1s of service
	if d := q.busyUntil - clk.Now(); d != time.Second {
		t.Fatalf("Delay = %v, want 1s", d)
	}
}

// TestQueueBusyStorageBounded keeps a queue busy through 20 000 messages
// without ever letting it empty: each delivery sends the next message, so
// the backlog stays at a handful. The queue's storage must stay within
// twice the largest live backlog, not grow with every message accepted
// while it is busy.
func TestQueueBusyStorageBounded(t *testing.T) {
	const total, backlog = 20000, 5
	clk := simclock.New()
	var q *Queue
	sent, delivered, peak := 0, 0, 0
	send := func() {
		if !q.Send(1000, nil) {
			t.Fatal("send dropped")
		}
		sent++
		peak = max(peak, q.pend.Len())
	}
	q = NewQueue(clk, 8e6, 1<<20, func(any) {
		delivered++
		if sent < total {
			send()
		}
		if q.pend.Len() == 0 && delivered < total {
			t.Fatalf("the queue emptied after %d deliveries", delivered)
		}
	})
	for i := 0; i < backlog; i++ {
		send()
	}
	clk.Run(time.Minute)
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if c := q.pend.Cap(); c > 2*peak {
		t.Fatalf("storage holds %d messages for a peak backlog of %d", c, peak)
	}
}

func TestQueueInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewQueue(simclock.New(), 0, 10, nil)
}

func TestCellularTransportEndToEnd(t *testing.T) {
	clk := simclock.New()
	var fwd, rev []any
	c, err := NewCellular(clk, lte.DefaultConfig(lte.ProfileStrongIdle), CellularPath,
		func(p any) { fwd = append(fwd, p) },
		func(p any) { rev = append(rev, p) })
	if err != nil {
		t.Fatal(err)
	}
	if !c.Send(1200, "media") {
		t.Fatal("send rejected")
	}
	c.SendFeedback("fb")
	clk.Run(2 * time.Second)
	if len(fwd) != 1 || fwd[0] != "media" {
		t.Fatalf("forward delivery %v", fwd)
	}
	if len(rev) != 1 || rev[0] != "fb" {
		t.Fatalf("reverse delivery %v", rev)
	}
}

func TestCellularDiagPassthrough(t *testing.T) {
	clk := simclock.New()
	c, err := NewCellular(clk, lte.DefaultConfig(lte.ProfileStrongIdle), CellularPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	c.SetDiagListener(func(lte.DiagReport) { n++ })
	clk.Run(time.Second)
	if n != 25 {
		t.Fatalf("diag reports = %d, want 25", n)
	}
	if c.UE.BufferBytes() != 0 {
		t.Fatal("buffer should be empty")
	}
}

func TestWirelineTransportEndToEnd(t *testing.T) {
	clk := simclock.New()
	var fwd, rev []any
	w := NewWireline(clk, 1, WirelinePath,
		func(p any) { fwd = append(fwd, p) },
		func(p any) { rev = append(rev, p) })
	w.SetDiagListener(func(lte.DiagReport) { t.Fatal("wireline diag fired") })
	w.Send(1200, "media")
	w.SendFeedback("fb")
	clk.Run(time.Second)
	if len(fwd) != 1 || len(rev) != 1 {
		t.Fatalf("fwd=%v rev=%v", fwd, rev)
	}
	if w.q.bytes != 0 {
		t.Fatal("queue should have drained")
	}
}

func TestWirelineFasterThanCellular(t *testing.T) {
	oneWay := func(build func(clk *simclock.Clock, deliver func(any)) func(int, any) bool) time.Duration {
		clk := simclock.New()
		var arrived time.Duration
		send := build(clk, func(any) { arrived = clk.Now() })
		send(1200, "x")
		clk.Run(5 * time.Second)
		return arrived
	}
	wl := oneWay(func(clk *simclock.Clock, d func(any)) func(int, any) bool {
		w := NewWireline(clk, 1, WirelinePath, d, nil)
		return w.Send
	})
	cell := oneWay(func(clk *simclock.Clock, d func(any)) func(int, any) bool {
		c, err := NewCellular(clk, lte.DefaultConfig(lte.ProfileStrongIdle), CellularPath, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.Send
	})
	if wl >= cell {
		t.Fatalf("wireline %v should beat cellular %v", wl, cell)
	}
}

func TestNominalRTT(t *testing.T) {
	if CellularPath.NominalRTT() <= WirelinePath.NominalRTT() {
		t.Fatal("cellular RTT should exceed wireline")
	}
}
