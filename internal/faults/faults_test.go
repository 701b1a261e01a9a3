package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestFaultEventHalfOpenWindow(t *testing.T) {
	e := Event{Kind: DiagStall, From: 2 * time.Second, Until: 4 * time.Second}
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{2*time.Second - time.Millisecond, false},
		{2 * time.Second, true}, // inclusive start
		{3 * time.Second, true},
		{4*time.Second - time.Millisecond, true},
		{4 * time.Second, false}, // exclusive end
	}
	for _, c := range cases {
		if got := e.Active(c.at); got != c.want {
			t.Errorf("Active(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestFaultScriptQueries(t *testing.T) {
	s := Script{Events: []Event{
		{Kind: DiagStall, From: time.Second, Until: 2 * time.Second},
		{Kind: ROIFreeze, From: 3 * time.Second, Until: 4 * time.Second},
		{Kind: FeedbackDrop, From: 5 * time.Second, Until: 6 * time.Second},
		{Kind: FeedbackDup, From: 5 * time.Second, Until: 7 * time.Second},
		{Kind: FeedbackDelay, From: 6 * time.Second, Until: 7 * time.Second, Extra: 300 * time.Millisecond},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.DiagStalled(1500 * time.Millisecond) {
		t.Error("diag should be stalled inside the window")
	}
	if s.DiagStalled(2 * time.Second) {
		t.Error("diag stall must end at the exclusive bound")
	}
	if !s.ROIFrozen(3 * time.Second) {
		t.Error("ROI should freeze at the inclusive bound")
	}
	drop, dup, extra := s.FeedbackFate(5500 * time.Millisecond)
	if !drop || !dup || extra != 0 {
		t.Errorf("fate at 5.5s = (%v,%v,%v), want (true,true,0)", drop, dup, extra)
	}
	drop, dup, extra = s.FeedbackFate(6500 * time.Millisecond)
	if drop || !dup || extra != 300*time.Millisecond {
		t.Errorf("fate at 6.5s = (%v,%v,%v), want (false,true,300ms)", drop, dup, extra)
	}
	drop, dup, extra = s.FeedbackFate(8 * time.Second)
	if drop || dup || extra != 0 {
		t.Errorf("fate outside all windows = (%v,%v,%v), want clean", drop, dup, extra)
	}
}

func TestFaultCapacityFactorComposes(t *testing.T) {
	s := Script{Events: []Event{
		{Kind: CapacityStep, From: 0, Until: 10 * time.Second, Factor: 0.5},
		{Kind: Outage, From: 2 * time.Second, Until: 3 * time.Second}, // default factor
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.CapacityFactor(time.Second); got != 0.5 {
		t.Errorf("step-only factor = %v, want 0.5", got)
	}
	want := 0.5 * outageFactor
	if got := s.CapacityFactor(2500 * time.Millisecond); got != want {
		t.Errorf("overlapping factor = %v, want %v", got, want)
	}
	if got := s.CapacityFactor(11 * time.Second); got != 1 {
		t.Errorf("factor outside windows = %v, want 1", got)
	}
}

func TestFaultValidateRejects(t *testing.T) {
	bad := []Script{
		{Events: []Event{{Kind: DiagStall, From: -time.Second, Until: time.Second}}},
		{Events: []Event{{Kind: DiagStall, From: 2 * time.Second, Until: 2 * time.Second}}},
		{Events: []Event{{Kind: Outage, From: 0, Until: time.Second, Factor: 1.5}}},
		{Events: []Event{{Kind: Outage, From: 0, Until: time.Second, Factor: -0.1}}},
		{Events: []Event{{Kind: FeedbackDelay, From: 0, Until: time.Second}}},
		{Events: []Event{{Kind: Kind(99), From: 0, Until: time.Second}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("script %d validated", i)
		}
	}
	if err := (Script{}).Validate(); err != nil {
		t.Errorf("empty script should validate: %v", err)
	}
}

func TestFaultMergeSortsDeterministically(t *testing.T) {
	a := Script{Events: []Event{{Kind: Outage, From: 5 * time.Second, Until: 6 * time.Second}}}
	b := Script{Events: []Event{{Kind: DiagStall, From: time.Second, Until: 2 * time.Second}}}
	ab, ba := Merge(a, b), Merge(b, a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge order changed the script:\n%v\n%v", ab, ba)
	}
	if ab.Events[0].Kind != DiagStall {
		t.Fatalf("merge not sorted by From: %v", ab.Events)
	}
}

func TestFaultPeriodicLayout(t *testing.T) {
	s := Periodic(DiagStall, 20*time.Second, 12*time.Second, 2*time.Second, 60*time.Second, 0)
	if len(s.Events) != 4 { // 20, 32, 44, 56
		t.Fatalf("got %d windows, want 4: %v", len(s.Events), s.Events)
	}
	if s.Events[3].From != 56*time.Second || s.Events[3].Until != 58*time.Second {
		t.Fatalf("last window %v", s.Events[3])
	}
	// Width clipped at the horizon.
	c := Periodic(DiagStall, 59*time.Second, 12*time.Second, 2*time.Second, 60*time.Second, 0)
	if len(c.Events) != 1 || c.Events[0].Until != 60*time.Second {
		t.Fatalf("horizon clip failed: %v", c.Events)
	}
	if !Periodic(DiagStall, 0, 0, time.Second, time.Minute, 0).Empty() {
		t.Fatal("non-positive period should yield the empty script")
	}
}

// Every named scenario materializes, at session lengths under and over
// two seconds, into a non-empty script whose windows are non-empty and lie
// inside the session; the 60 s handover timeline keeps its first window
// at 20 s; an unknown name or a zero duration errs.
func TestFaultScenariosMaterialize(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 6 {
		t.Fatalf("suspiciously few scenarios: %v", names)
	}
	for _, n := range names {
		for _, d := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 1900 * time.Millisecond, 2 * time.Second,
			2500 * time.Millisecond, 30 * time.Second, 60 * time.Second, 150 * time.Second} {
			s, err := MakeScenario(n, d)
			if err != nil || s.Empty() {
				t.Fatalf("%s @ %v: %v, or an empty script", n, d, err)
			}
			for i, e := range s.Events {
				if e.From >= d || e.Until > d || e.From >= e.Until {
					t.Fatalf("%s @ %v: event %d is not a window inside the session: %v", n, d, i, e)
				}
			}
			if n == "handover" && d == 60*time.Second && s.Events[0].From != 20*time.Second {
				t.Fatalf("60 s handover timeline moved: first window at %v, want 20s", s.Events[0].From)
			}
		}
	}
	if _, err := MakeScenario("nope", time.Minute); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := MakeScenario("diag-stall", 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k := DiagStall; k <= ROIFreeze; k++ {
		if s := k.String(); s == "" || s[0] == 'f' && s != "feedback-drop" && s != "feedback-dup" && s != "feedback-delay" {
			t.Errorf("Kind(%d).String() = %q", int(k), s)
		}
	}
	if Kind(42).String() != "faults.Kind(42)" {
		t.Errorf("unknown kind string %q", Kind(42).String())
	}
}
