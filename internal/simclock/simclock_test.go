package simclock

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// TestClockFiresInOrder: each row schedules on a fresh clock (fire(tag)
// is a handler logging Now and tag) and runs it to each of runs in turn.
// The clock must fire exactly want, in order; during Run(u) no event past
// u may fire, and after it Now is u.
func TestClockFiresInOrder(t *testing.T) {
	type fired struct {
		at  time.Duration
		tag int
	}
	ms := time.Millisecond
	rows := []struct {
		name  string
		setup func(c *Clock, fire func(tag int) func())
		runs  []time.Duration
		want  []fired
	}{
		{"time order", func(c *Clock, fire func(int) func()) {
			c.Schedule(30*ms, fire(3))
			c.Schedule(10*ms, fire(1))
			c.Schedule(20*ms, fire(2))
		}, []time.Duration{time.Second}, []fired{{10 * ms, 1}, {20 * ms, 2}, {30 * ms, 3}}},
		{"FIFO tie-break", func(c *Clock, fire func(int) func()) {
			for i := 0; i < 10; i++ {
				c.Schedule(5*ms, fire(i))
			}
		}, []time.Duration{time.Second}, []fired{{5 * ms, 0}, {5 * ms, 1}, {5 * ms, 2}, {5 * ms, 3}, {5 * ms, 4},
			{5 * ms, 5}, {5 * ms, 6}, {5 * ms, 7}, {5 * ms, 8}, {5 * ms, 9}}},
		{"Run stops at until", func(c *Clock, fire func(int) func()) {
			c.Schedule(42*ms, fire(0))
			c.Schedule(2*time.Second, fire(1))
		}, []time.Duration{time.Second, 3 * time.Second}, []fired{{42 * ms, 0}, {2 * time.Second, 1}}},
		{"negative delay fires now", func(c *Clock, fire func(int) func()) {
			c.ScheduleAfter(-time.Second, fire(0))
		}, []time.Duration{0}, []fired{{0, 0}}},
		{"nested event", func(c *Clock, fire func(int) func()) {
			c.Schedule(ms, func() { c.ScheduleAfter(ms, fire(0)) })
		}, []time.Duration{time.Second}, []fired{{2 * ms, 0}}},
		{"ticker stopped by an event", func(c *Clock, fire func(int) func()) {
			c.Schedule(35*ms, c.Ticker(10*ms, fire(0)))
		}, []time.Duration{35 * ms, 100 * ms}, []fired{{10 * ms, 0}, {20 * ms, 0}, {30 * ms, 0}}},
		{"ticker stopped from its callback", func(c *Clock, fire func(int) func()) {
			n := 0
			var stop func()
			stop = c.Ticker(ms, func() {
				fire(0)()
				if n++; n == 2 {
					stop()
				}
			})
		}, []time.Duration{time.Second}, []fired{{ms, 0}, {2 * ms, 0}}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c := New()
			if c.Now() != 0 {
				t.Fatalf("%s: a new clock reads %v", r.name, c.Now())
			}
			var got []fired
			var until time.Duration
			r.setup(c, func(tag int) func() {
				return func() {
					if c.Now() > until {
						t.Fatalf("%s: event at %v fired in Run(%v)", r.name, c.Now(), until)
					}
					got = append(got, fired{c.Now(), tag})
				}
			})
			for _, until = range r.runs {
				if c.Run(until); c.Now() != until {
					t.Fatalf("%s: after Run(%v) Now() = %v", r.name, until, c.Now())
				}
			}
			if !slices.Equal(got, r.want) {
				t.Fatalf("%s: fired %v, want %v", r.name, got, r.want)
			}
		})
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := New()
	c.Schedule(time.Second, func() {})
	c.Run(time.Second)
	for name, fn := range map[string]func(){
		"scheduling in the past": func() { c.Schedule(500*time.Millisecond, func() {}) },
		"a zero ticker period":   func() { c.Ticker(0, func() {}) },
	} {
		t.Run(name, func(t *testing.T) {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s did not panic", name)
					}
				}()
				fn()
			}()
		})
	}
}

// Step fires one event; Pending counts events and tickers, a stopped
// ticker until its pending occurrence comes up.
func TestStepAndPending(t *testing.T) {
	c := New()
	n := 0
	c.Schedule(time.Millisecond, func() { n++ })
	c.Schedule(2*time.Millisecond, func() { n++ })
	stop := c.Ticker(time.Millisecond, func() {})
	if c.Pending() != 3 {
		t.Fatalf("Pending=%d, want 3", c.Pending())
	}
	stop()
	if c.Pending() != 3 {
		t.Fatalf("Pending=%d after stop, want 3", c.Pending())
	}
	if !c.Step() || n != 1 || c.Now() != time.Millisecond {
		t.Fatalf("after one step n=%d now=%v", n, c.Now())
	}
	if !c.Step() || !c.Step() || c.Step() || c.Pending() != 0 {
		t.Fatalf("Step fired past the queue or left %d pending", c.Pending())
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
