package netsim

import (
	"slices"
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

// A 1000 B/s queue serves its messages back to back, a second each, and
// drops at its byte cap.
func TestQueueRateAndDropTail(t *testing.T) {
	clk := simclock.New()
	var times []time.Duration
	q := NewQueue(clk, 8000, 1500, func(any) { times = append(times, clk.Now()) })
	if q.busyUntil != 0 || !q.Send(1000, nil) || q.busyUntil != time.Second {
		t.Fatalf("busy until %v after one message, want 1s", q.busyUntil)
	}
	if q.Send(1000, nil) || q.Dropped() != 1 || q.bytes != 1000 {
		t.Fatalf("over-cap send: dropped %d, %d bytes queued", q.Dropped(), q.bytes)
	}
	clk.Run(time.Second + time.Millisecond)
	q.Send(1000, nil)
	clk.Run(10 * time.Second)
	if !slices.Equal(times, []time.Duration{time.Second, time.Second + time.Millisecond + time.Second}) {
		t.Fatalf("delivery times %v", times)
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

// Both transports carry media forward and feedback back; only the
// cellular one relays diag reports (25 a second); wireline delivers
// sooner and its nominal RTT is shorter.
func TestTransports(t *testing.T) {
	type transport interface {
		Send(int, any) bool
		SendFeedback(any)
		SetDiagListener(func(lte.DiagReport))
	}
	var oneWay [2]time.Duration
	for k, build := range []func(clk *simclock.Clock, fwd, rev func(any)) transport{
		func(clk *simclock.Clock, fwd, rev func(any)) transport {
			return NewWireline(clk, 1, WirelinePath, fwd, rev)
		},
		func(clk *simclock.Clock, fwd, rev func(any)) transport {
			c, err := NewCellular(clk, lte.DefaultConfig(lte.ProfileStrongIdle), CellularPath, fwd, rev)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	} {
		t.Run([]string{"wireline", "cellular"}[k], func(t *testing.T) {
			clk := simclock.New()
			var fwd, rev []any
			tr := build(clk, func(p any) {
				fwd = append(fwd, p)
				oneWay[k] = clk.Now()
			}, func(p any) { rev = append(rev, p) })
			diags := 0
			tr.SetDiagListener(func(lte.DiagReport) { diags++ })
			if !tr.Send(1200, "media") {
				t.Fatal("send rejected")
			}
			tr.SendFeedback("fb")
			clk.Run(time.Second)
			if len(fwd) != 1 || fwd[0] != "media" || len(rev) != 1 || rev[0] != "fb" || diags != 25*k {
				t.Fatalf("transport %d: forward %v, reverse %v, %d diag reports", k, fwd, rev, diags)
			}
			if w, ok := tr.(*Wireline); ok && w.q.bytes != 0 {
				t.Fatal("wireline queue should have drained")
			}
			if c, ok := tr.(*Cellular); ok && c.UE.BufferBytes() != 0 {
				t.Fatal("cellular buffer should be empty")
			}
		})
	}
	if oneWay[0] >= oneWay[1] || CellularPath.NominalRTT() <= WirelinePath.NominalRTT() {
		t.Fatalf("wireline %v should beat cellular %v, and its nominal RTT too", oneWay[0], oneWay[1])
	}
}
