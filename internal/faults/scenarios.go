package faults

import (
	"fmt"
	"sort"
	"time"
)

// Scenario names every canned disturbance timeline. Scenarios are
// parameterized only by the session duration so the same name reproduces
// the same timeline at any experiment scale.
//
// Timelines start at roughly one third of the session so the disturbances
// land after the experiment engine's 15 s stats warmup at every supported
// session length (quick 60 s, full 150 s).
var scenarios = map[string]func(d time.Duration) Script{
	// diag-stall: the modem diag feed goes silent for 2 s windows every
	// 12 s — the FBCC watchdog's reason to exist.
	"diag-stall": func(d time.Duration) Script {
		return Periodic(DiagStall, scenarioStart(d), 12*time.Second, 2*time.Second, d, 0)
	},
	// feedback-loss: the reverse path drops every feedback message for
	// 1.5 s windows every 10 s (ROI, M and GCC rate all go stale).
	"feedback-loss": func(d time.Duration) Script {
		return Periodic(FeedbackDrop, scenarioStart(d), 10*time.Second, 1500*time.Millisecond, d, 0)
	},
	// feedback-storm: duplicated and late feedback — every message in the
	// window is doubled and held an extra 600 ms (downlink bufferbloat
	// with retransmissions), well past the session's 500 ms staleness
	// guard, which must refuse to integrate the late copies.
	"feedback-storm": func(d time.Duration) Script {
		return Merge(
			Periodic(FeedbackDup, scenarioStart(d), 11*time.Second, 2*time.Second, d, 0),
			Periodic(FeedbackDelay, scenarioStart(d), 11*time.Second, 2*time.Second, d, 600*time.Millisecond),
		)
	},
	// handover: 800 ms near-total radio outages every 15 s, the scripted
	// (deterministic) version of the vehicular handover events the
	// stochastic capacity process only produces at speed.
	"handover": func(d time.Duration) Script {
		return Periodic(Outage, scenarioStart(d), 15*time.Second, 800*time.Millisecond, d, 0)
	},
	// capacity-step: the cell's achievable uplink rate halves from one
	// third of the session to the end — sustained congestion elsewhere.
	"capacity-step": func(d time.Duration) Script {
		return Script{Events: []Event{{Kind: CapacityStep, From: scenarioStart(d), Until: d, Factor: 0.5}}}
	},
	// roi-freeze: the sender's ROI belief sticks for 2 s windows every
	// 12 s while the viewer keeps moving.
	"roi-freeze": func(d time.Duration) Script {
		return Periodic(ROIFreeze, scenarioStart(d), 12*time.Second, 2*time.Second, d, 0)
	},
	// storm: everything at once — stalled diag, lossy late feedback, and
	// handover outages overlapping. The kitchen-sink robustness check.
	"storm": func(d time.Duration) Script {
		return Merge(
			Periodic(DiagStall, scenarioStart(d), 13*time.Second, 2*time.Second, d, 0),
			Periodic(FeedbackDrop, scenarioStart(d)+3*time.Second, 13*time.Second, 1200*time.Millisecond, d, 0),
			Periodic(FeedbackDelay, scenarioStart(d)+5*time.Second, 13*time.Second, 1500*time.Millisecond, d, 600*time.Millisecond),
			Periodic(Outage, scenarioStart(d)+7*time.Second, 13*time.Second, 700*time.Millisecond, d, 0),
		)
	},
}

// scenarioStart places the first disturbance at one third of the session
// (whole seconds, at least 2 s in) — clipped to the session itself: for a
// sub-~3 s session the 2 s floor would land at or after the session end,
// every Periodic window would fall outside [0, d), and the scenario would
// silently no-op. Such sessions start at the raw (untruncated) third
// instead, so the first window always opens strictly before the horizon.
func scenarioStart(d time.Duration) time.Duration {
	s := (d / 3).Truncate(time.Second)
	if s < 2*time.Second {
		s = 2 * time.Second
	}
	if s >= d {
		s = d / 3
	}
	return s
}

// ScenarioNames lists the canned scenarios in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MakeScenario materializes a named scenario over a session of the given
// duration.
func MakeScenario(name string, duration time.Duration) (Script, error) {
	fn, ok := scenarios[name]
	if !ok {
		return Script{}, fmt.Errorf("faults: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	if duration <= 0 {
		return Script{}, fmt.Errorf("faults: scenario %q needs a positive duration, got %v", name, duration)
	}
	s := fn(duration)
	if err := s.Validate(); err != nil {
		return Script{}, fmt.Errorf("faults: scenario %q: %w", name, err)
	}
	if s.Empty() {
		// A scenario that materializes to zero windows would run the
		// session undisturbed while reporting "+faults" everywhere — the
		// silent no-op this guard exists to catch (see scenarioStart).
		return Script{}, fmt.Errorf("faults: scenario %q is empty over %v: no disturbance window fits the session", name, duration)
	}
	return s, nil
}
