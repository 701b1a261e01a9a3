package session

import (
	"math"
	"reflect"
	"testing"
	"time"

	"poi360/internal/faults"
)

// A scripted diag stall mid-session trips the FBCC watchdog once per stall
// window; disabling the watchdog leaves the controller on the dead feed.
func TestFaultSessionDiagStallDegrades(t *testing.T) {
	script := faults.Script{Events: []faults.Event{
		{Kind: faults.DiagStall, From: 8 * time.Second, Until: 11 * time.Second},
		{Kind: faults.DiagStall, From: 15 * time.Second, Until: 16 * time.Second},
	}}
	base := Config{Duration: 24 * time.Second, Seed: 3, RC: RCFBCC, Faults: script}

	armed := run(t, base)
	// Reports ride the 40 ms grid: [8 s, 11 s) hides 75, [15 s, 16 s) hides 25.
	if armed.DiagStalled != 100 {
		t.Fatalf("DiagStalled = %d, want 100", armed.DiagStalled)
	}
	// Both stalls dwarf the 200 ms watchdog timeout: one degradation each.
	if armed.FBCCDegradations != 2 {
		t.Fatalf("FBCCDegradations = %d, want 2", armed.FBCCDegradations)
	}

	disabled := base
	disabled.FBCCWatchdogReports = -1
	off := run(t, disabled)
	if off.FBCCDegradations != 0 {
		t.Fatalf("disabled watchdog degraded %d times", off.FBCCDegradations)
	}
	if off.DiagStalled != armed.DiagStalled {
		t.Fatalf("suppressed-report count changed with the watchdog setting: %d vs %d",
			off.DiagStalled, armed.DiagStalled)
	}
}

// Scripted feedback delay beyond the staleness threshold makes the session
// guard discard the late messages.
func TestFaultSessionFeedbackStalenessGuard(t *testing.T) {
	script := faults.Script{Events: []faults.Event{
		{Kind: faults.FeedbackDelay, From: 5 * time.Second, Until: 10 * time.Second, Extra: 600 * time.Millisecond},
	}}
	res := run(t, Config{Duration: 20 * time.Second, Seed: 4, Faults: script})
	if res.StaleFeedback == 0 {
		t.Fatal("600 ms-delayed feedback never tripped the 500 ms staleness guard")
	}
}

// Freezing the sender's ROI belief while the viewer keeps moving raises the
// observed mismatch versus the identical clean session.
func TestFaultSessionROIFreezeRaisesMismatch(t *testing.T) {
	base := Config{Duration: 30 * time.Second, Seed: 5}
	clean := run(t, base)

	frozen := base
	frozen.Faults = faults.Script{Events: []faults.Event{
		{Kind: faults.ROIFreeze, From: 2 * time.Second, Until: 30 * time.Second},
	}}
	froze := run(t, frozen)

	mean := func(r *Result) float64 {
		var s float64
		for _, m := range r.Mismatch {
			s += m.V
		}
		return s / float64(len(r.Mismatch))
	}
	if len(clean.Mismatch) == 0 || len(froze.Mismatch) == 0 {
		t.Fatal("no mismatch samples")
	}
	if mean(froze) <= mean(clean) {
		t.Fatalf("frozen-ROI mismatch %.4f s not above clean %.4f s", mean(froze), mean(clean))
	}
}

// A faulted session is exactly as deterministic as a clean one: two runs of
// the full storm scenario are deep-equal.
func TestFaultSessionDeterministicUnderStorm(t *testing.T) {
	script, err := faults.MakeScenario("storm", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Duration: 30 * time.Second, Seed: 6, RC: RCFBCC, Faults: script}
	a, b := run(t, cfg), run(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical faulted sessions diverged")
	}
	if a.DiagStalled == 0 && a.StaleFeedback == 0 && a.PacketDrops == 0 {
		t.Fatal("storm scenario left no trace on the session")
	}
}

// An invalid fault script is rejected before the session starts.
func TestFaultSessionRejectsBadScript(t *testing.T) {
	cfg := Config{
		Duration: 5 * time.Second,
		Faults: faults.Script{Events: []faults.Event{
			{Kind: faults.DiagStall, From: 2 * time.Second, Until: 2 * time.Second},
		}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty-window fault script accepted")
	}
}

func TestPipelineDelaySentinel(t *testing.T) {
	c, err := Config{Duration: time.Second}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.PipelineDelay != 250*time.Millisecond {
		t.Fatalf("default PipelineDelay = %v, want 250ms", c.PipelineDelay)
	}
	c, err = Config{Duration: time.Second, PipelineDelay: -1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.PipelineDelay != 0 {
		t.Fatalf("PipelineDelay sentinel -1 → %v, want 0", c.PipelineDelay)
	}

	// The pipeline delay is a pure constant on every delivered frame: the
	// zero-delay run's median sits exactly 250 ms under the default run's.
	def := run(t, Config{Duration: 12 * time.Second, Seed: 8})
	zero := run(t, Config{Duration: 12 * time.Second, Seed: 8, PipelineDelay: -1})
	if d := def.DelaySummary().Median - zero.DelaySummary().Median; math.Abs(d-250) > 1e-6 {
		t.Fatalf("median delay gap %v ms, want 250", d)
	}
}
