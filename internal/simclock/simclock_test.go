package simclock

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	c := New()
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	c.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	c := New()
	var got []int
	at := 5 * time.Millisecond
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(at, func() { got = append(got, i) })
	}
	c.Run(time.Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	c := New()
	var seen time.Duration
	c.Schedule(42*time.Millisecond, func() { seen = c.Now() })
	c.Run(time.Second)
	if seen != 42*time.Millisecond {
		t.Fatalf("event saw Now()=%v, want 42ms", seen)
	}
	if c.Now() != time.Second {
		t.Fatalf("after Run, Now()=%v, want 1s", c.Now())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	c := New()
	fired := false
	c.Schedule(2*time.Second, func() { fired = true })
	c.Run(time.Second)
	if fired {
		t.Fatal("event beyond until fired")
	}
	if c.Now() != time.Second {
		t.Fatalf("Now()=%v, want 1s", c.Now())
	}
	c.Run(3 * time.Second)
	if !fired {
		t.Fatal("event did not fire on later Run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := New()
	c.Schedule(time.Second, func() {})
	c.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(500*time.Millisecond, func() {})
}

func TestScheduleAfterNegativeClamps(t *testing.T) {
	c := New()
	fired := false
	c.ScheduleAfter(-time.Second, func() { fired = true })
	c.Run(0)
	if !fired {
		t.Fatal("negative-delay event should fire immediately")
	}
}

func TestTicker(t *testing.T) {
	c := New()
	var ticks []time.Duration
	stop := c.Ticker(10*time.Millisecond, func() {
		ticks = append(ticks, c.Now())
	})
	c.Run(35 * time.Millisecond)
	stop()
	c.Run(100 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	c := New()
	n := 0
	var stop func()
	stop = c.Ticker(time.Millisecond, func() {
		n++
		if n == 2 {
			stop()
		}
	})
	c.Run(time.Second)
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	New().Ticker(0, func() {})
}

func TestStep(t *testing.T) {
	c := New()
	n := 0
	c.Schedule(time.Millisecond, func() { n++ })
	c.Schedule(2*time.Millisecond, func() { n++ })
	if !c.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 || c.Now() != time.Millisecond {
		t.Fatalf("after one step n=%d now=%v", n, c.Now())
	}
	if !c.Step() {
		t.Fatal("second Step returned false")
	}
	if c.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPending(t *testing.T) {
	c := New()
	c.Schedule(time.Millisecond, func() {})
	c.Schedule(time.Millisecond, func() {})
	stop := c.Ticker(time.Millisecond, func() {})
	if c.Pending() != 3 {
		t.Fatalf("Pending=%d, want 3", c.Pending())
	}
	stop()
	// A stopped ticker counts until its pending occurrence comes up.
	if c.Pending() != 3 {
		t.Fatalf("Pending=%d after stop, want 3", c.Pending())
	}
	c.Run(time.Second)
	if c.Pending() != 0 {
		t.Fatalf("Pending=%d after the run, want 0", c.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := New()
	var got []time.Duration
	c.Schedule(time.Millisecond, func() {
		c.ScheduleAfter(time.Millisecond, func() {
			got = append(got, c.Now())
		})
	})
	c.Run(time.Second)
	if len(got) != 1 || got[0] != 2*time.Millisecond {
		t.Fatalf("nested event fired at %v, want [2ms]", got)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		c := New()
		var fired []time.Duration
		for _, d := range delaysMs {
			at := time.Duration(d) * time.Millisecond
			c.Schedule(at, func() { fired = append(fired, c.Now()) })
		}
		c.Run(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(delaysMs) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tickerMix registers a benchmark workload's ticker population on c: a city
// shard (cell subframe, resident frame tick), a session (uplink subframe,
// pacer, two frame tickers, viewer stats) or the 16-UE shared cell (its
// subframe, then 16 sessions' four tickers each: 65 tickers in 4 classes).
func tickerMix(c *Clock, mix string) {
	frame := time.Second / 30
	session := []time.Duration{5 * time.Millisecond, frame, frame, time.Second}
	var periods []time.Duration
	switch mix {
	case "city":
		periods = []time.Duration{time.Millisecond, frame}
	case "session":
		periods = append([]time.Duration{time.Millisecond}, session...)
	case "shared16":
		periods = []time.Duration{time.Millisecond}
		for i := 0; i < 16; i++ {
			periods = append(periods, session...)
		}
	}
	fired := 0
	for _, p := range periods {
		c.Ticker(p, func() { fired++ })
	}
}

// TestClockTickAllocFree holds the simulation lane to no allocation per
// ticker fire on the shared-cell population (re-arming moves a class head,
// it builds nothing).
func TestClockTickAllocFree(t *testing.T) {
	c := New()
	tickerMix(c, "shared16")
	if c.Pending() != 65 {
		t.Fatalf("Pending=%d, want 65 tickers", c.Pending())
	}
	c.Run(2 * time.Second) // warm-up: every class has fired
	if n := testing.AllocsPerRun(10000, func() { c.Step() }); n != 0 {
		t.Fatalf("%g allocations per ticker fire, want 0", n)
	}
}

// BenchmarkTickerLane times one ticker fire (ns/op) on the lane populations
// of the city, session and shared-cell workloads (2, 5 and 65 tickers).
func BenchmarkTickerLane(b *testing.B) {
	for _, mix := range []string{"city", "session", "shared16"} {
		b.Run(mix, func(b *testing.B) {
			c := New()
			tickerMix(c, mix)
			c.Run(2 * time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
		})
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New()
		for j := 0; j < 1000; j++ {
			c.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		c.Run(time.Second)
	}
}
