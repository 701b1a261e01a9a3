package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wall is the wall-clock Scheduler backend: the same event-arena heap as the
// simulation Clock, but deadlines are monotonic real time and the run loop
// sleeps on a timer between events instead of jumping virtual time. It is
// what carries the POI360 pipeline over real UDP sockets (internal/realnet):
// session code written against Scheduler runs on either backend unchanged.
//
// Concurrency model: Schedule/ScheduleAfter/SchedulePayload/ScheduleCode/
// NewCode/Ticker are safe to call from any goroutine
// (socket reader goroutines inject received packets by scheduling their
// handling), while every callback runs serialized on the single goroutine
// executing Run — mirroring the simulation clock's one-goroutine discipline,
// so consumers need no locking of their own.
//
// Unlike the simulation Clock, scheduling in the past does not panic: real
// time advances between computing a deadline and the Schedule call, so a
// slightly-past deadline simply fires as soon as possible.
type Wall struct {
	start time.Time

	// mu guards the arena and stopped.
	mu sync.Mutex
	arena
	stopped bool

	// wake interrupts the run loop's sleep when a new earliest event or a
	// stop arrives; buffered so signalers never block.
	wake chan struct{}
}

// NewWall returns a wall clock whose origin ("elapsed zero") is the moment
// of the call. Run must be invoked — once, on the goroutine that should own
// the callbacks — for scheduled events to fire.
func NewWall() *Wall {
	return &Wall{start: time.Now(), arena: newArena(), wake: make(chan struct{}, 1)}
}

// Now reports the monotonic elapsed time since construction.
func (w *Wall) Now() time.Duration { return time.Since(w.start) }

// add schedules one event; callers hold w.mu. A past deadline clamps to now
// so the event fires on the next loop pass, and a new heap minimum wakes the
// run loop, whose sleep it may shorten.
func (w *Wall) add(at time.Duration, fn func(any), arg any) Handle {
	if now := w.Now(); at < now {
		at = now
	}
	if w.arena.add(at, fn, arg) == w.heap[0] {
		w.signal()
	}
	return Handle{}
}

func (w *Wall) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Schedule runs fn at absolute elapsed time at (clamped to now if past).
func (w *Wall) Schedule(at time.Duration, fn func()) Handle {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.add(at, callFunc, fn)
}

// ScheduleAfter runs fn after delay d (d < 0 is treated as 0).
func (w *Wall) ScheduleAfter(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return w.Schedule(w.Now()+d, fn)
}

// SchedulePayload runs fn(arg) at absolute elapsed time at.
func (w *Wall) SchedulePayload(at time.Duration, fn func(any), arg any) Handle {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.add(at, fn, arg)
}

// NewCode registers h as a typed event handler and returns its Code.
func (w *Wall) NewCode(h func(any)) Code {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.newCode(h)
}

// ScheduleCode runs the handler registered for code with arg at absolute
// elapsed time at.
func (w *Wall) ScheduleCode(at time.Duration, code Code, arg any) Handle {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checkCode(code)
	return w.add(at, w.handlers[code], arg)
}

// wallTicker is the shared state of one Ticker registration.
type wallTicker struct {
	w       *Wall
	period  time.Duration
	at      time.Duration // current target instant, for drift-free cadence
	fn      func()
	stopped atomic.Bool
}

// fireWallTicker is the static callback every wallTicker re-arms with: a
// *wallTicker boxes into the event's argument without allocating, where
// the method value t.fire would escape to the heap on every tick.
func fireWallTicker(t any) { t.(*wallTicker).fire() }

func (t *wallTicker) fire() {
	if t.stopped.Load() {
		return
	}
	t.fn()
	if t.stopped.Load() {
		return
	}
	// Drift-free: aim at target+period, but never burst to catch up — if
	// the callback overran, the next tick lands immediately and the cadence
	// re-anchors from real time.
	t.at += t.period
	if now := t.w.Now(); t.at < now {
		t.at = now
	}
	t.w.SchedulePayload(t.at, fireWallTicker, t)
}

// Ticker invokes fn every period until the returned stop function is
// called. Ticks do not accumulate drift while the callback keeps up.
func (w *Wall) Ticker(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	t := &wallTicker{w: w, period: period, at: w.Now() + period, fn: fn}
	w.SchedulePayload(t.at, fireWallTicker, t)
	return func() { t.stopped.Store(true) }
}

// Stop makes Run return as soon as possible. Events still in the heap are
// kept (a subsequent Run would resume them); Stop is idempotent.
func (w *Wall) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.signal()
}

// Run executes events as their deadlines arrive until elapsed time reaches
// until or Stop is called, sleeping between deadlines on one reused timer.
// Callbacks run on the calling goroutine. It returns when the deadline
// passes — pending events beyond it stay queued.
func (w *Wall) Run(until time.Duration) {
	var timer *time.Timer
	for {
		w.mu.Lock()
		if w.stopped {
			w.stopped = false // re-arm for a subsequent Run
			w.mu.Unlock()
			return
		}
		now := w.Now()
		// Fire every due event before considering sleep.
		if len(w.heap) > 0 && w.slab[w.heap[0]].at <= now {
			fn, arg := w.take()
			w.mu.Unlock()
			fn(arg)
			continue
		}
		if now >= until {
			w.mu.Unlock()
			return
		}
		next := until
		if len(w.heap) > 0 && w.slab[w.heap[0]].at < next {
			next = w.slab[w.heap[0]].at
		}
		w.mu.Unlock()

		// Drain a stale wake-up so the select below sees only signals sent
		// after the sleep target was computed.
		select {
		case <-w.wake:
			continue
		default:
		}
		if timer == nil {
			timer = time.NewTimer(next - now)
		} else {
			timer.Reset(next - now)
		}
		select {
		case <-timer.C:
		case <-w.wake:
			// Pre-Go 1.23 timer rules (go.mod says 1.22): a timer that
			// fired before Stop has left its tick in the channel, and
			// Reset would not clear it — drain it here.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

var _ Scheduler = (*Wall)(nil)
