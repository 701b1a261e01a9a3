// Package simclock provides a deterministic discrete-event simulation
// engine used by every POI360 substrate (LTE link, network path, video
// pipeline). A single goroutine owns the event loop; components schedule
// callbacks at absolute or relative virtual times and the engine executes
// them in time order with FIFO tie-breaking, so a given seed always yields
// the same trajectory.
//
// # Event arena
//
// Scheduling is the hottest allocation site of a session (a 30 s cellular
// run schedules ~44 000 events: 30 000 LTE subframes, 6 000 pacer ticks,
// per-packet deliveries, frame/feedback/diag timers). Events therefore
// live in a flat per-clock slab and are addressed by index: the priority
// queue is a binary heap of int32 slab indices, so sift operations move
// 4-byte integers instead of pointers and incur no GC write barriers, and
// fired slots are recycled through a free list so steady-state scheduling
// allocates nothing. Recycling is invisible to callers: event order and
// FIFO tie-breaking are unchanged. An event, once scheduled, always fires;
// nothing in the system cancels one.
//
// # One event form
//
// Every heap event is a (func(any), argument) pair. SchedulePayload stores
// its pair as given; Schedule stores its closure as the argument of one
// static trampoline, callFunc (a func value is pointer-shaped, so boxing it
// allocates nothing); ScheduleCode resolves its code to the registered
// handler when the event is scheduled. Dispatch is therefore one indirect
// call, whichever way the event was scheduled.
//
// # Periodic lane
//
// Tickers — the single densest event class (the 1 ms LTE subframe tick
// alone is ~30 000 events per session) — bypass the heap entirely. Each
// Ticker occupies one slot in a small "periodic lane"; the run loop merges
// the lane with the heap by (time, sequence), and a fired ticker reuses its
// lane slot for the next occurrence instead of a heap push/pop pair. Lane
// entries consume sequence numbers at exactly the points a self-re-arming
// heap closure would (one at registration, one after each callback
// returns), so the merged firing order is bit-identical to scheduling every
// tick through the heap (TestCodedDispatchMatchesClosureGolden holds the
// lane to such closures). The lane stays because it is measurably faster:
// a prototype that made every tick a self-re-arming heap event was
// bit-identical but ran the session-grid benchmark 21 % slower (shared-cell
// 6 %) — most of a session's events are ticks, and a lane fire is one slot
// update where a heap tick is a push and a pop.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Code identifies a callback registered with NewCode. The zero Code is
// never issued.
type Code uint8

// event is a scheduled callback fn(arg). Events compare by time, then by
// insertion sequence so simultaneous events run in the order they were
// scheduled.
type event struct {
	at  time.Duration
	seq uint64
	fn  func(any)
	arg any
}

// callFunc is the trampoline a closure event dispatches through: Schedule
// stores the closure itself as the event's argument.
func callFunc(f any) { f.(func())() }

// periodic is one Ticker's lane slot: the pending occurrence (at, seq) plus
// the rescheduling state. A stopped entry keeps its pending occurrence
// until the run loop reaches it — mirroring the old closure ticker, whose
// already-scheduled no-op event stayed in the heap after stop().
type periodic struct {
	at      time.Duration
	seq     uint64
	period  time.Duration
	fn      func()
	stopped bool
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// create one with New.
type Clock struct {
	now time.Duration
	// arena holds the heap events; its seq is shared with the ticker lane.
	arena
	// periodics is the ticker lane. Entries are removed (swap-delete) only
	// after their final pending occurrence has been consumed; stop
	// functions capture the *periodic, so reordering is safe.
	periodics []*periodic
	// pmin caches the lane entry with the smallest (at, seq); pdirty marks
	// it stale. The lane order only changes when an entry is added, removed,
	// or rescheduled after firing — Step itself can reuse the cached pick,
	// so the lane scan runs once per ticker fire instead of once per event.
	pmin   *periodic
	pdirty bool
}

// New returns a Clock positioned at virtual time zero with no pending events.
func New() *Clock {
	return &Clock{arena: newArena()}
}

// Now reports the current virtual time (elapsed since simulation start).
func (c *Clock) Now() time.Duration { return c.now }

// Handle is what the schedule methods return. It carries nothing — an
// event cannot be cancelled — and stays only as the result type of the
// Scheduler methods, which implementations outside this package name.
type Handle struct{}

// arena is the event store both Scheduler backends are built on: the slab,
// the (at, seq) min-heap of slab indices, the free list and the typed-code
// handler table. Clock and Wall embed it by value, so the dispatch path
// reaches it without a pointer hop; what differs between them — Clock's
// panic on a past deadline, Wall's clamp, mutex and wake signal — stays in
// the owner.
type arena struct {
	seq uint64
	// slab holds the events; heap and free hold indices into it.
	slab []event
	heap []int32
	free []int32
	// handlers dispatches typed event codes; index 0 is unused.
	handlers []func(any)
}

func newArena() arena {
	return arena{handlers: make([]func(any), 1, 8)}
}

// less orders slab indices by (time, sequence).
func (a *arena) less(x, y int32) bool {
	ex, ey := &a.slab[x], &a.slab[y]
	if ex.at != ey.at {
		return ex.at < ey.at
	}
	return ex.seq < ey.seq
}

func (a *arena) siftUp(j int) {
	h := a.heap
	for j > 0 {
		parent := (j - 1) / 2
		if !a.less(h[j], h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

func (a *arena) siftDown(j int) {
	h := a.heap
	n := len(h)
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a.less(h[r], h[l]) {
			m = r
		}
		if !a.less(h[m], h[j]) {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
}

// pop removes and returns the slab index of the minimum heap event. The
// caller must ensure the heap is non-empty.
func (a *arena) pop() int32 {
	h := a.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	a.heap = h[:n]
	if n > 0 {
		a.siftDown(0)
	}
	return top
}

// add takes an event slot from the free list (or grows the slab), stamps it
// with (at, next sequence number) and the callback fn(arg), and pushes it
// onto the heap. It returns the slot.
func (a *arena) add(at time.Duration, fn func(any), arg any) int32 {
	var i int32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.slab = append(a.slab, event{})
		i = int32(len(a.slab) - 1)
	}
	e := &a.slab[i]
	e.at = at
	e.seq = a.seq
	a.seq++
	e.fn, e.arg = fn, arg
	a.heap = append(a.heap, i)
	a.siftUp(len(a.heap) - 1)
	return i
}

// take consumes the minimum heap event: it copies the callback out and
// returns the slot to the free list, so the callback's own scheduling can
// reuse it immediately. The caller runs fn(arg).
func (a *arena) take() (fn func(any), arg any) {
	i := a.pop()
	e := &a.slab[i]
	fn, arg = e.fn, e.arg
	e.fn, e.arg = nil, nil
	a.free = append(a.free, i)
	return fn, arg
}

// newCode registers h in the handler table.
func (a *arena) newCode(h func(any)) Code {
	if h == nil {
		panic("simclock: nil code handler")
	}
	if len(a.handlers) > math.MaxUint8 {
		panic("simclock: event code space exhausted")
	}
	a.handlers = append(a.handlers, h)
	return Code(len(a.handlers) - 1)
}

// checkCode panics unless newCode issued code.
func (a *arena) checkCode(code Code) {
	if code == 0 || int(code) >= len(a.handlers) {
		panic(fmt.Sprintf("simclock: schedule of unregistered code %d", code))
	}
}

// add schedules one heap event. Scheduling in the past panics: it indicates
// a logic error in the caller, and silently reordering time would corrupt
// every downstream measurement.
func (c *Clock) add(at time.Duration, fn func(any), arg any) Handle {
	if at < c.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, c.now))
	}
	c.arena.add(at, fn, arg)
	return Handle{}
}

// Schedule runs fn at absolute virtual time at (panics if at is in the past).
func (c *Clock) Schedule(at time.Duration, fn func()) Handle {
	return c.add(at, callFunc, fn)
}

// SchedulePayload runs fn(arg) at absolute virtual time at. It is the
// closure-free variant of Schedule for hot paths that deliver a payload
// through a long-lived function: the callback and its argument ride in the
// recycled event slot, so steady-state per-packet scheduling performs zero
// allocations beyond whatever boxing arg itself required.
func (c *Clock) SchedulePayload(at time.Duration, fn func(any), arg any) Handle {
	return c.add(at, fn, arg)
}

// NewCode registers h as a typed event handler and returns its Code; use
// ScheduleCode to schedule it. Codes are per-clock; a clock supports up to
// 255.
func (c *Clock) NewCode(h func(any)) Code { return c.newCode(h) }

// ScheduleCode runs the handler registered for code with arg at absolute
// virtual time at.
func (c *Clock) ScheduleCode(at time.Duration, code Code, arg any) Handle {
	c.checkCode(code)
	return c.add(at, c.handlers[code], arg)
}

// ScheduleAfter runs fn after delay d (d < 0 is treated as 0).
func (c *Clock) ScheduleAfter(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return c.Schedule(c.now+d, fn)
}

// Ticker invokes fn every period, starting one period from now, until the
// returned stop function is called. fn observes the tick time via Clock.Now.
func (c *Clock) Ticker(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	p := &periodic{at: c.now + period, seq: c.seq, period: period, fn: fn}
	c.seq++
	c.periodics = append(c.periodics, p)
	c.pdirty = true
	// Stopping only flags the entry: its pending occurrence keeps its
	// (at, seq) slot in the merge order, so the cached minimum stays valid.
	return func() { p.stopped = true }
}

// removePeriodic swap-deletes p from the lane once its last pending
// occurrence has been consumed.
func (c *Clock) removePeriodic(p *periodic) {
	for i, q := range c.periodics {
		if q == p {
			n := len(c.periodics) - 1
			c.periodics[i] = c.periodics[n]
			c.periodics[n] = nil
			c.periodics = c.periodics[:n]
			c.pdirty = true
			return
		}
	}
}

// nextPeriodic returns the lane entry with the smallest (at, seq), or nil.
func (c *Clock) nextPeriodic() *periodic {
	if !c.pdirty {
		return c.pmin
	}
	var best *periodic
	for _, p := range c.periodics {
		if best == nil || p.at < best.at || (p.at == best.at && p.seq < best.seq) {
			best = p
		}
	}
	c.pmin = best
	c.pdirty = false
	return best
}

// fireHeap consumes and dispatches the minimum heap event.
func (c *Clock) fireHeap() {
	fn, arg := c.take()
	fn(arg)
}

// firePeriodic consumes a lane entry's pending occurrence. A stopped entry
// is retired without running its callback (the old closure ticker fired a
// no-op event here); a live one runs fn and then reschedules, consuming the
// next sequence number only after fn returns — exactly where the old
// ticker's ScheduleAfter sat.
func (c *Clock) firePeriodic(p *periodic) {
	if p.stopped {
		c.removePeriodic(p)
		return
	}
	p.fn()
	if p.stopped {
		c.removePeriodic(p)
		return
	}
	p.at = c.now + p.period
	p.seq = c.seq
	c.seq++
	c.pdirty = true
}

// next selects the earliest pending occurrence across the heap and the
// periodic lane. It returns (nil, -1) when nothing is pending; a heap pick
// is (nil, index of heap top), a lane pick is (entry, -1).
func (c *Clock) next() (*periodic, int32) {
	p := c.nextPeriodic()
	if len(c.heap) == 0 {
		if p == nil {
			return nil, -1
		}
		return p, -1
	}
	top := c.heap[0]
	if p == nil {
		return nil, top
	}
	e := &c.slab[top]
	if e.at < p.at || (e.at == p.at && e.seq < p.seq) {
		return nil, top
	}
	return p, -1
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when no events remain.
func (c *Clock) Step() bool {
	p, top := c.next()
	switch {
	case p != nil:
		c.now = p.at
		c.firePeriodic(p)
		return true
	case top >= 0:
		c.now = c.slab[top].at
		c.fireHeap()
		return true
	}
	return false
}

// Run executes events in order until the event queue is empty or the next
// event lies beyond until. The clock finishes positioned at until (or at the
// last event time if that is later — it never rewinds).
func (c *Clock) Run(until time.Duration) {
	for {
		p, top := c.next()
		switch {
		case p != nil:
			if p.at > until {
				goto done
			}
			c.now = p.at
			c.firePeriodic(p)
		case top >= 0:
			if c.slab[top].at > until {
				goto done
			}
			c.now = c.slab[top].at
			c.fireHeap()
		default:
			goto done
		}
	}
done:
	if c.now < until {
		c.now = until
	}
}

// Pending reports the number of events in the queue, counting each active
// ticker's pending occurrence.
func (c *Clock) Pending() int {
	return len(c.periodics) + len(c.heap)
}
