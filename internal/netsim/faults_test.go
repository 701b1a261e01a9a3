package netsim

import (
	"testing"
	"time"

	"poi360/internal/faults"
	"poi360/internal/lte"
	"poi360/internal/obs"
	"poi360/internal/simclock"
)

// The link fault hook drops exactly the messages sent inside its window.
func TestFaultLinkDropWindow(t *testing.T) {
	clk := simclock.New()
	var got []int
	l := NewDelayLink(clk, 1, 10*time.Millisecond, 0, 0, 0, func(p any) { got = append(got, p.(int)) })
	bus := obs.NewBus()
	l.SetProbe(bus.Probe(0))
	from, until := 100*time.Millisecond, 200*time.Millisecond
	l.SetFault(func(now time.Duration) (bool, bool, time.Duration) {
		return now >= from && now < until, false, 0
	})
	for i := 0; i < 30; i++ {
		i := i
		clk.Schedule(time.Duration(i)*10*time.Millisecond, func() { l.Send(i) })
	}
	clk.Run(time.Second)
	// Sends at 100..190 ms (indices 10..19) are dropped.
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20: %v", len(got), got)
	}
	for _, v := range got {
		if v >= 10 && v < 20 {
			t.Fatalf("message %d sent inside the drop window was delivered", v)
		}
	}
	if n := bus.Count(obs.NetFaultDrop); n != 10 {
		t.Fatalf("%d net.fault.drop events, want 10", n)
	}
}

// Duplication yields two deliveries per send, still in FIFO order.
func TestFaultLinkDuplicate(t *testing.T) {
	clk := simclock.New()
	var got []int
	l := NewDelayLink(clk, 2, 5*time.Millisecond, time.Millisecond, 0, 0, func(p any) { got = append(got, p.(int)) })
	bus := obs.NewBus()
	l.SetProbe(bus.Probe(0))
	l.SetFault(func(time.Duration) (bool, bool, time.Duration) { return false, true, 0 })
	for i := 0; i < 10; i++ {
		i := i
		clk.Schedule(time.Duration(i)*10*time.Millisecond, func() { l.Send(i) })
	}
	clk.Run(time.Second)
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20 (each doubled)", len(got))
	}
	for i, v := range got {
		if v != i/2 {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if n := bus.Count(obs.NetFaultDup); n != 10 {
		t.Fatalf("%d net.fault.dup events, want 10", n)
	}
}

// Extra delay shifts delivery by at least the scripted amount.
func TestFaultLinkExtraDelay(t *testing.T) {
	extra := 300 * time.Millisecond
	oneWay := func(withFault bool) time.Duration {
		clk := simclock.New()
		var arrived time.Duration
		l := NewDelayLink(clk, 3, 20*time.Millisecond, 0, 0, 0, func(any) { arrived = clk.Now() })
		if withFault {
			l.SetFault(func(time.Duration) (bool, bool, time.Duration) { return false, false, extra })
		}
		l.Send(1)
		clk.Run(time.Second)
		return arrived
	}
	clean, delayed := oneWay(false), oneWay(true)
	if delayed-clean != extra {
		t.Fatalf("delay shift %v, want %v", delayed-clean, extra)
	}
}

// A faults.Script plugs straight into the transport's feedback path and the
// hook is clearable.
func TestFaultTransportFeedbackWiring(t *testing.T) {
	clk := simclock.New()
	delivered := 0
	cell, err := NewCellular(clk, lte.DefaultConfig(lte.ProfileStrongIdle), CellularPath,
		nil, func(any) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	cell.SetProbe(bus.Probe(0))
	script := faults.Script{Events: []faults.Event{
		{Kind: faults.FeedbackDrop, From: 0, Until: time.Hour},
	}}
	cell.SetFeedbackFault(script.FeedbackFate)
	for i := 0; i < 5; i++ {
		cell.SendFeedback(i)
	}
	clk.Run(time.Second)
	if delivered != 0 {
		t.Fatalf("%d feedback messages leaked through a full drop window", delivered)
	}
	if n := bus.Count(obs.NetFaultDrop); n != 5 {
		t.Fatalf("%d net.fault.drop events, want 5", n)
	}
	cell.SetFeedbackFault(nil)
	cell.SendFeedback(99)
	clk.Run(2 * time.Second)
	if delivered != 1 {
		t.Fatalf("cleared hook still interfering: delivered %d", delivered)
	}

	// Wireline wires the same hook.
	clk2 := simclock.New()
	wDelivered := 0
	w := NewWireline(clk2, 7, WirelinePath, nil, func(any) { wDelivered++ })
	w.SetFeedbackFault(script.FeedbackFate)
	w.SendFeedback(1)
	clk2.Run(time.Second)
	if wDelivered != 0 {
		t.Fatal("wireline feedback fault not applied")
	}
}
