// Package faults provides a deterministic fault-injection subsystem for
// POI360 sessions: a scripted disturbance timeline that can stall the modem
// diagnostic feed, corrupt the reverse feedback path (drop / duplicate /
// delay), force handover-style outages or capacity steps onto the LTE
// uplink, and freeze the sender's ROI belief.
//
// A Script is a pure value — a sorted list of half-open disturbance windows
// on the simulation clock — and every query is a pure function of (script,
// now). Nothing in this package draws randomness, so a faulted session is
// exactly as deterministic as an unfaulted one: for a fixed session seed and
// script the trajectory is byte-identical at any worker count (the PR 1
// engine invariant).
//
// The injection points live in the layers they disturb (internal/lte for
// capacity and diag faults, internal/netsim for the feedback path,
// internal/session for ROI-belief freezes); this package only describes
// *when* and *how much*. The graceful-degradation counterparts — FBCC's
// diag-staleness watchdog and the session's feedback-staleness guard — live
// in internal/ratecontrol and internal/session.
package faults

import (
	"fmt"
	"sort"
	"time"

	"poi360/internal/obs"
	"poi360/internal/simclock"
)

// Kind enumerates the disturbance types a Script can inject.
type Kind int

// Disturbance kinds.
const (
	// DiagStall suppresses modem diagnostic reports during the window,
	// modeling a stalled chipset diag interface (the 40 ms feed FBCC
	// consumes simply goes silent).
	DiagStall Kind = iota
	// FeedbackDrop drops reverse-path feedback messages (ROI, M, GCC rate)
	// sent during the window.
	FeedbackDrop
	// FeedbackDup duplicates reverse-path feedback messages sent during the
	// window (retransmission storms, path flaps).
	FeedbackDup
	// FeedbackDelay adds Extra one-way delay to feedback messages sent
	// during the window (bufferbloat on the downlink).
	FeedbackDelay
	// Outage scales uplink capacity by Factor (default outageFactor)
	// during the window — a handover-style radio outage.
	Outage
	// CapacityStep scales uplink capacity by Factor during the window —
	// a scripted step in the cell's achievable rate (competing traffic,
	// congestion elsewhere).
	CapacityStep
	// ROIFreeze freezes the sender's ROI belief during the window: feedback
	// still arrives but the sender's view of where the viewer looks stops
	// updating (a stuck client-side tracker).
	ROIFreeze
)

func (k Kind) String() string {
	switch k {
	case DiagStall:
		return "diag-stall"
	case FeedbackDrop:
		return "feedback-drop"
	case FeedbackDup:
		return "feedback-dup"
	case FeedbackDelay:
		return "feedback-delay"
	case Outage:
		return "outage"
	case CapacityStep:
		return "capacity-step"
	case ROIFreeze:
		return "roi-freeze"
	default:
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
}

// outageFactor is the residual capacity during a handover-style outage when
// an Outage event leaves Factor at zero: the radio is effectively dead but
// control traffic trickles.
const outageFactor = 0.05

// Event is one disturbance window. Windows are half-open: the disturbance
// is active for From <= now < Until. Consistent half-openness matters — the
// controller-side boundary bugs this subsystem exists to expose were
// exactly one-sided interval disagreements.
type Event struct {
	Kind Kind
	From time.Duration
	// Until ends the window (exclusive).
	Until time.Duration
	// Factor scales uplink capacity for Outage / CapacityStep events.
	// Zero means "use the kind's default" (outageFactor for Outage, 1 —
	// i.e. no-op — for CapacityStep).
	Factor float64
	// Extra is the added one-way delay for FeedbackDelay events.
	Extra time.Duration
}

// Active reports whether the event's window covers now.
func (e Event) Active(now time.Duration) bool {
	return now >= e.From && now < e.Until
}

// capacityFactor returns the multiplier this event applies to uplink
// capacity (1 when the event does not affect capacity).
func (e Event) capacityFactor() float64 {
	switch e.Kind {
	case Outage:
		if e.Factor > 0 {
			return e.Factor
		}
		return outageFactor
	case CapacityStep:
		if e.Factor > 0 {
			return e.Factor
		}
		return 1
	default:
		return 1
	}
}

// Script is a deterministic disturbance timeline: a set of Events queried
// by the simulation layers at their own injection points. The zero value is
// the empty script (no disturbances). Scripts are immutable once a session
// starts and safe for concurrent read by parallel sessions.
type Script struct {
	Events []Event
}

// Empty reports whether the script injects nothing.
func (s Script) Empty() bool { return len(s.Events) == 0 }

// Validate reports an error for incoherent scripts: inverted or negative
// windows, non-positive capacity factors, or a FeedbackDelay without Extra.
func (s Script) Validate() error {
	for i, e := range s.Events {
		if e.From < 0 {
			return fmt.Errorf("faults: event %d (%s) starts before t=0: %v", i, e.Kind, e.From)
		}
		if e.Until <= e.From {
			return fmt.Errorf("faults: event %d (%s) window [%v, %v) is empty or inverted", i, e.Kind, e.From, e.Until)
		}
		switch e.Kind {
		case Outage, CapacityStep:
			if e.Factor < 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d (%s) capacity factor %g outside [0, 1]", i, e.Kind, e.Factor)
			}
		case FeedbackDelay:
			if e.Extra <= 0 {
				return fmt.Errorf("faults: event %d (feedback-delay) needs positive Extra, got %v", i, e.Extra)
			}
		case DiagStall, FeedbackDrop, FeedbackDup, ROIFreeze:
			// window-only kinds
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// ActiveAt returns the first event of kind k whose window covers now.
func (s Script) ActiveAt(k Kind, now time.Duration) (Event, bool) {
	for _, e := range s.Events {
		if e.Kind == k && e.Active(now) {
			return e, true
		}
	}
	return Event{}, false
}

// DiagStalled reports whether the modem diag feed is suppressed at now.
func (s Script) DiagStalled(now time.Duration) bool {
	_, ok := s.ActiveAt(DiagStall, now)
	return ok
}

// ROIFrozen reports whether the sender's ROI belief is frozen at now.
func (s Script) ROIFrozen(now time.Duration) bool {
	_, ok := s.ActiveAt(ROIFreeze, now)
	return ok
}

// CapacityFactor returns the product of all capacity multipliers active at
// now (1 when none are). Overlapping outages and steps compose.
func (s Script) CapacityFactor(now time.Duration) float64 {
	f := 1.0
	for _, e := range s.Events {
		if e.Active(now) {
			f *= e.capacityFactor()
		}
	}
	return f
}

// FeedbackFate decides what happens to a reverse-path feedback message sent
// at now: dropped, duplicated, and/or held for extra delay. Overlapping
// delay windows add.
func (s Script) FeedbackFate(now time.Duration) (drop, dup bool, extra time.Duration) {
	for _, e := range s.Events {
		if !e.Active(now) {
			continue
		}
		switch e.Kind {
		case FeedbackDrop:
			drop = true
		case FeedbackDup:
			dup = true
		case FeedbackDelay:
			extra += e.Extra
		}
	}
	return drop, dup, extra
}

// Announce schedules telemetry markers for every disturbance window on
// the scheduler: a fault.on event at each window's From and a fault.off at its
// Until (matching the half-open [From, Until) activation). The callbacks
// only emit onto the probe — they read no simulation state and mutate
// none — so announcing a script cannot change a session's trajectory;
// with a nil probe nothing is scheduled at all.
func (s Script) Announce(clk simclock.Scheduler, p *obs.Probe) {
	if p == nil {
		return
	}
	for _, e := range s.Events {
		e := e
		clk.Schedule(e.From, func() {
			p.Emit(e.From, obs.FaultOn, float64(e.Kind), e.capacityFactor(), e.Extra.Seconds(), 0)
		})
		clk.Schedule(e.Until, func() {
			p.Emit(e.Until, obs.FaultOff, float64(e.Kind), 0, 0, 0)
		})
	}
}

// Merge concatenates scripts into one, sorted by (From, Kind) so the
// resulting event order is deterministic regardless of argument order.
func Merge(scripts ...Script) Script {
	var out Script
	for _, s := range scripts {
		out.Events = append(out.Events, s.Events...)
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		if out.Events[i].From != out.Events[j].From {
			return out.Events[i].From < out.Events[j].From
		}
		return out.Events[i].Kind < out.Events[j].Kind
	})
	return out
}

// Periodic lays out windows of the given kind every period from start until
// horizon: [start, start+width), [start+period, start+period+width), …
// Extra is forwarded to each event. It is the building block of the named
// scenarios.
func Periodic(k Kind, start, period, width, horizon, extra time.Duration) Script {
	var s Script
	if period <= 0 || width <= 0 {
		return s
	}
	for at := start; at < horizon; at += period {
		until := at + width
		if until > horizon {
			until = horizon
		}
		s.Events = append(s.Events, Event{Kind: k, From: at, Until: until, Extra: extra})
	}
	return s
}
