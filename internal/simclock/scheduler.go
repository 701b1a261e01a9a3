package simclock

import "time"

// Scheduler is the timing seam every POI360 layer schedules against: the
// session pipeline, the RTP pacer and reassembler, the LTE cell, and the
// network-path models all take a Scheduler, so the same code runs on the
// deterministic simulation Clock or on the wall-clock backend (Wall) that
// drives the real-transport path — a backend swap, not a rewrite.
//
// Semantics shared by every implementation:
//
//   - Now reports elapsed time since the scheduler's origin (simulation
//     start, or wall-clock construction), monotone non-decreasing.
//   - Callbacks run serialized on a single goroutine — the simulation
//     goroutine for Clock, the run-loop goroutine for Wall — so consumers
//     need no locking of their own.
//   - Ticker callbacks observe the tick time via Now.
//
// The backends differ in one documented way: Clock panics on scheduling in
// the past (a logic error under virtual time), while Wall clamps to "now"
// (real time advances between decision and call, so a slightly-past
// deadline merely means "run as soon as possible").
type Scheduler interface {
	// Now reports the elapsed time since the scheduler's origin.
	Now() time.Duration
	// Schedule runs fn at absolute time at.
	Schedule(at time.Duration, fn func()) Handle
	// ScheduleAfter runs fn after delay d (d < 0 is treated as 0).
	ScheduleAfter(d time.Duration, fn func()) Handle
	// SchedulePayload runs fn(arg) at absolute time at without a closure
	// allocation on the scheduling path.
	SchedulePayload(at time.Duration, fn func(any), arg any) Handle
	// NewCode registers h as a typed event handler; ScheduleCode then
	// schedules (code, payload) pairs without a closure.
	NewCode(h func(any)) Code
	// ScheduleCode runs the handler registered for code with arg at
	// absolute time at.
	ScheduleCode(at time.Duration, code Code, arg any) Handle
	// Ticker invokes fn every period, starting one period from now, until
	// the returned stop function is called.
	Ticker(period time.Duration, fn func()) (stop func())
}

var _ Scheduler = (*Clock)(nil)
