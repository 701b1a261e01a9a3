package simclock

import (
	"fmt"
	"testing"
	"time"
)

// The typed-code dispatch path (NewCode/ScheduleCode) and the periodic
// ticker lane are both shortcuts with an exact-equivalence contract: for
// any scheduling workload, coded events fire in the same order, at the same
// virtual times, as closure events, and lane tickers fire exactly where
// self-re-arming heap closures would. This property test drives three runs
// through an identical randomized workload — bursts, ties, handler-spawned
// events, tickers competing with the heap and scheduling
// into their own next tick, period classes of several tickers that join and
// leave mid-run — and requires the firing logs to match event-for-event.

// firedEvent is one log entry. A heap event also records Clock.Pending as
// its handler saw it: the lane counts a stopped ticker until its pending
// occurrence comes up, as the heap counts a stopped heap ticker's no-op.
type firedEvent struct {
	at      time.Duration
	tag     int
	pending int
}

// goldenMode selects how a run schedules its events and its tickers.
type goldenMode int

const (
	closuresOnLane   goldenMode = iota // Schedule closures, lane tickers
	codesOnLane                        // ScheduleCode events, lane tickers
	closuresOnlyHeap                   // Schedule closures, heap tickers
)

// goldenRunner drives one clock through the workload. The schedule and
// ticker indirections are the only differences between the runs under
// test.
type goldenRunner struct {
	c        *Clock
	schedule func(at time.Duration, tag int)
	log      []firedEvent
	rng      uint64
	spawned  int
	ticks    int
	stopTick func()
}

func (r *goldenRunner) rand() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

// fire is the shared handler body. Every draw from r.rng happens inside
// handlers, so as long as both runs fire handlers in the same order they
// make identical follow-on scheduling decisions.
func (r *goldenRunner) fire(tag int) {
	r.log = append(r.log, firedEvent{r.c.Now(), tag, r.c.Pending()})
	const maxSpawned = 4000
	switch r.rand() % 5 {
	case 0, 1: // spawn a short burst, often with tied timestamps
		n := int(r.rand()%3) + 1
		delay := time.Duration(r.rand()%500) * time.Microsecond
		for i := 0; i < n && r.spawned < maxSpawned; i++ {
			r.spawned++
			r.schedule(r.c.Now()+delay, r.spawned)
		}
	case 3: // spawn one far-future event
		if r.spawned < maxSpawned {
			r.spawned++
			r.schedule(r.c.Now()+time.Duration(r.rand()%50)*time.Millisecond, r.spawned)
		}
	default: // no follow-on work
	}
}

// heapTicker is the reference a lane ticker must equal: a closure that
// re-arms itself through the heap after fn returns, consuming one sequence
// number at registration and one per re-arm. Stopping sets a flag; the
// pending occurrence then fires as a no-op.
func heapTicker(c *Clock, period time.Duration, fn func()) (stop func()) {
	stopped := false
	var arm func()
	arm = func() {
		c.ScheduleAfter(period, func() {
			if stopped {
				return
			}
			fn()
			if !stopped {
				arm()
			}
		})
	}
	arm()
	return func() { stopped = true }
}

// runGoldenWorkload executes the workload on a fresh clock, returning the
// firing log.
func runGoldenWorkload(seed uint64, mode goldenMode) []firedEvent {
	c := New()
	r := &goldenRunner{c: c, rng: seed}
	ticker := c.Ticker
	if mode == closuresOnlyHeap {
		ticker = func(period time.Duration, fn func()) func() { return heapTicker(c, period, fn) }
	}
	if mode == codesOnLane {
		code := c.NewCode(func(arg any) { r.fire(arg.(int)) })
		r.schedule = func(at time.Duration, tag int) { c.ScheduleCode(at, code, tag) }
	} else {
		r.schedule = func(at time.Duration, tag int) { c.Schedule(at, func() { r.fire(tag) }) }
	}

	// Tickers competing with the heap: one free-running ticker that, every
	// third tick, schedules an event tied with its own next tick (which
	// must fire after that event: the re-arm takes its sequence number
	// only after the callback returns), and one that stops itself mid-run
	// (tags are negative to stay disjoint from heap-event tags).
	free := 0
	ticker(700*time.Microsecond, func() {
		r.log = append(r.log, firedEvent{at: c.Now(), tag: -1})
		if free++; free%3 == 0 && r.spawned < 4000 {
			r.spawned++
			r.schedule(c.Now()+700*time.Microsecond, r.spawned)
		}
	})
	r.stopTick = ticker(900*time.Microsecond, func() {
		r.log = append(r.log, firedEvent{at: c.Now(), tag: -2})
		r.ticks++
		if r.ticks == 40 {
			r.stopTick()
		}
	})

	// Seed burst, including exact timestamp ties.
	for i := 0; i < 50; i++ {
		r.spawned++
		r.schedule(time.Duration(i%17)*300*time.Microsecond, r.spawned)
	}
	classTickers(r, ticker)
	return r.log
}

// classTickers runs the period-class part of the workload: three periods
// (tags −1x, −2x, −3x) with five to seven members each, so the lane's rings
// hold several tickers at once. Members join at t = 0, from heap events,
// and from another ticker's callback at an instant tied with their own
// class head (pending at 2 ms and 5 ms, fired just before at 10 ms). One
// member is stopped from outside while it is not its class head, one stops
// itself, and two are stopped and replaced while their last occurrence is
// still pending: once from a heap event, once between two clock runs (the
// lte.Cell sleep/wake pattern).
func classTickers(r *goldenRunner, ticker func(time.Duration, func()) func()) {
	c := r.c
	const pa, pb, pc = 500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond
	stops := map[int]func(){}
	// on[tag][n] runs inside member tag's n-th callback.
	on := map[int]map[int]func(){}
	join := func(tag int, period time.Duration) {
		n := 0
		stops[tag] = ticker(period, func() {
			r.log = append(r.log, firedEvent{at: c.Now(), tag: tag})
			// A heap event tied with this member's next tick, which must
			// fire before it.
			if r.rand()%4 == 0 && r.spawned < 4000 {
				r.spawned++
				r.schedule(c.Now()+period, r.spawned)
			}
			n++
			if f := on[tag][n]; f != nil {
				f()
			}
		})
	}
	at := func(t time.Duration, f func()) { c.Schedule(t, f) }

	join(-10, pa)
	join(-11, pa)
	join(-20, pb)
	join(-21, pb)
	join(-30, pc)
	join(-31, pc)
	at(500*time.Microsecond, func() { join(-22, pb) }) // tied with class pa's ticks
	at(1200*time.Microsecond, func() { join(-12, pa) })
	at(7*time.Millisecond, func() { join(-32, pc) })
	at(15*time.Millisecond, func() { join(-33, pc) }) // before class pc's own 15 ms ticks
	on[-20] = map[int]func(){
		2:  func() { join(-13, pa) }, // 2 ms: class pa's head still pending
		10: func() { join(-34, pc) }, // 10 ms: class pc has just fired
	}
	on[-30] = map[int]func(){
		2: func() { join(-14, pa); join(-23, pb) }, // 5 ms: both heads pending
	}
	on[-31] = map[int]func(){5: func() { stops[-31]() }} // stops itself at 12.5 ms
	at(20250*time.Microsecond, func() { stops[-21]() })  // behind -20 and -22
	at(30100*time.Microsecond, func() { stops[-11](); join(-15, pa) })
	c.Run(40 * time.Millisecond)
	stops[-12]()
	join(-16, pa)
	stops[-22]()
	join(-24, pb)
	c.Run(80 * time.Millisecond)
}

func TestCodedDispatchMatchesClosureGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2463534242, 88172645463325252} {
		closure := runGoldenWorkload(seed, closuresOnLane)
		if len(closure) < 200 {
			t.Fatalf("seed %d: workload degenerate, only %d events fired", seed, len(closure))
		}
		heap := runGoldenWorkload(seed, closuresOnlyHeap)
		members := map[int]bool{}
		for _, e := range heap {
			if e.tag <= -10 {
				members[e.tag] = true
			}
		}
		if len(members) != 17 {
			t.Fatalf("seed %d: %d class tickers fired, want 17", seed, len(members))
		}
		for _, other := range []struct {
			name string
			log  []firedEvent
		}{
			{"coded", runGoldenWorkload(seed, codesOnLane)},
			{"heap-ticker", heap},
		} {
			firstDiff(t, fmt.Sprintf("seed %d: %s run's event", seed, other.name), other.log, closure)
		}
	}
}

// firstDiff fails t at the first element where got and want differ, or
// on their lengths.
func firstDiff[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d of them, want %d", what, len(got), len(want))
	}
}
