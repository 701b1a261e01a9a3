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
// alone is ~30 000 events per session) — bypass the heap entirely. The run
// loop merges a small "periodic lane" with the heap by (time, sequence),
// and a fired ticker re-arms in place instead of a heap push/pop pair. Lane
// entries consume sequence numbers at exactly the points a self-re-arming
// heap closure would (one at registration, one after each callback
// returns), so the merged firing order is bit-identical to scheduling every
// tick through the heap (TestCodedDispatchMatchesClosureGolden holds the
// lane to such closures). The lane stays because it is measurably faster:
// a prototype that made every tick a self-re-arming heap event was
// bit-identical but ran the session-grid benchmark 21 % slower (shared-cell
// 6 %) — most of a session's events are ticks, and a lane fire is one slot
// update where a heap tick is a push and a pop.
//
// Tickers that share a period form a class: a ring of its members in firing
// order, and only the class head, the member due first, holds a lane slot.
// The ring never needs sorting because a member always joins and re-arms as
// the last of its class: it takes now+period and the newest sequence
// number, while every other member was armed at or before now, so it is
// due at or before now+period with an older number. Re-arming therefore
// moves the head to the next member, a registration into an existing class
// leaves the lane minimum alone, and the head scan costs O(distinct
// periods), not O(tickers): the 16-UE shared cell's 65 tickers are 4
// classes (1 ms, 5 ms, 33.3 ms, 1 s), and a fire there costs ≈ 20 ns where
// the per-ticker scan cost ≈ 110 ns (BenchmarkTickerLane). A one-member
// class — both tickers of a city shard; a session's subframe, pacer and
// viewer tickers — pays one branch more than a plain slot. A stopped ticker
// stays in its ring until its pending occurrence comes up, and only then
// leaves.
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

// periodic is one Ticker: the pending occurrence (at, seq) plus the
// rescheduling state. Tickers with the same period form a class, a
// circular doubly-linked ring (next, prev) in firing order; only the class
// head, the member due first, sits in the lane. A stopped entry (fn nil)
// keeps its pending occurrence until the run loop reaches it — mirroring
// the old closure ticker, whose already-scheduled no-op event stayed in
// the heap after stop(). It is kept at six words (a 48-byte allocation):
// stop clears fn instead of setting a flag, and the head's lane slot is
// remembered by the scan (Clock.pslot), not stored here.
type periodic struct {
	at         time.Duration
	seq        uint64
	period     time.Duration
	fn         func()
	next, prev *periodic
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// create one with New.
type Clock struct {
	now time.Duration
	// arena holds the heap events; its seq is shared with the ticker lane.
	arena
	// periodics is the ticker lane: one class head per distinct period.
	// A class leaves (swap-delete) only when it empties; stop functions
	// capture the *periodic, so reordering is safe.
	periodics []*periodic
	// pmin caches the lane head with the smallest (at, seq) and pslot its
	// index in periodics; pdirty marks them stale. The lane order only
	// changes when a class is added or removed or its head fires — Step
	// itself can reuse the cached pick, so the head scan runs once per
	// ticker fire instead of once per event. tickers counts the members of
	// every class. pslot and tickers are int32 to keep Clock in the
	// 160-byte allocation size class.
	pmin    *periodic
	pslot   int32
	tickers int32
	pdirty  bool
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
	return c.register(period, fn).stop
}

// stop only clears fn: the pending occurrence keeps its (at, seq) place in
// the merge order, so the cached minimum stays valid.
func (p *periodic) stop() { p.fn = nil }

// register arms a new ticker one period from now and adds it to the class
// of its period, or opens a class. It is Ticker's body out of line, so that
// Ticker inlines and a caller that drops the stop function does not
// allocate the method value.
func (c *Clock) register(period time.Duration, fn func()) *periodic {
	if period <= 0 || fn == nil {
		panic("simclock: ticker needs a positive period and a callback")
	}
	p := &periodic{at: c.now + period, seq: c.seq, period: period, fn: fn}
	c.seq++
	c.tickers++
	for _, h := range c.periodics {
		if h.period == period {
			// p is due last in its class (see the package doc): it joins
			// the ring's tail, just before the head, and the lane minimum
			// is unchanged.
			p.next, p.prev = h, h.prev
			h.prev.next = p
			h.prev = p
			return p
		}
	}
	p.next, p.prev = p, p
	c.periodics = append(c.periodics, p)
	c.pdirty = true
	return p
}

// nextPeriodic returns the lane head with the smallest (at, seq), or nil.
func (c *Clock) nextPeriodic() *periodic {
	if !c.pdirty {
		return c.pmin
	}
	var best *periodic
	var slot int32
	for i, p := range c.periodics {
		if best == nil || p.at < best.at || (p.at == best.at && p.seq < best.seq) {
			best, slot = p, int32(i)
		}
	}
	c.pmin, c.pslot = best, slot
	c.pdirty = false
	return best
}

// fireHeap consumes and dispatches the minimum heap event.
func (c *Clock) fireHeap() {
	fn, arg := c.take()
	fn(arg)
}

// firePeriodic consumes the pending occurrence of p, the lane pick of
// nextPeriodic, whose slot is pslot (fn may add classes, which appends and
// moves no slot). A stopped entry is retired without running its callback
// (the old closure ticker fired a no-op event here); a live one runs fn
// and then reschedules, consuming the next sequence number only after fn
// returns — exactly where the old ticker's ScheduleAfter sat. The re-armed
// p is last of its class, so the ring stays as it is and the head moves on
// to p.next.
func (c *Clock) firePeriodic(p *periodic) {
	if p.fn != nil {
		p.fn()
	}
	c.pdirty = true
	if p.fn == nil {
		c.retire(p)
		return
	}
	p.at = c.now + p.period
	p.seq = c.seq
	c.seq++
	if q := p.next; q != p {
		c.periodics[c.pslot] = q
	}
}

// retire removes p, the class head at pslot, once its last pending
// occurrence has been consumed: p.next heads the class, or, if p was
// alone, the class leaves the lane.
func (c *Clock) retire(p *periodic) {
	slot := c.pslot
	c.tickers--
	if q := p.next; q != p {
		p.prev.next, q.prev = q, p.prev
		c.periodics[slot] = q
		return
	}
	n := len(c.periodics) - 1
	c.periodics[slot] = c.periodics[n]
	c.periodics[n] = nil
	c.periodics = c.periodics[:n]
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

// Pending reports the number of pending events: every heap event plus one
// occurrence per ticker. A stopped ticker still counts until the run loop
// reaches its last pending occurrence and retires it.
func (c *Clock) Pending() int {
	return int(c.tickers) + len(c.heap)
}
