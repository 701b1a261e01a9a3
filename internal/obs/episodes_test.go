package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// mkEvent is a shorthand for synthetic episode streams.
func mkEvent(at time.Duration, k Kind, sub int32, a, b, c float64) Event {
	return Event{At: at, Kind: k, Sub: sub, A: a, B: b, C: c}
}

// TestEpisodes reconstructs each stream's episodes, in batch (Episodes)
// and streaming (EpisodeTracker), and holds them, their durations and
// holds, and their summary to the expected ones.
func TestEpisodes(t *testing.T) {
	s, ms := time.Second, time.Millisecond
	type ep = Episode
	rows := []struct {
		name   string
		events []Event
		want   []Episode
		times  [][2]time.Duration // per episode: Duration, Held
		stats  *EpisodeStats
	}{
		// Trigger → pin → release: the detector inputs and pin parameters
		// attached.
		{"basic", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 11), mkEvent(s, FBCCPin, 0, 2.5e6, 0.23, 0),
			mkEvent(1230*ms, FBCCRelease, 0, 0.23, 2.5e6, 0)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, ReleaseAt: 1230 * ms, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 11,
				RphyBps: 2.5e6, HoldS: 0.23, Complete: true}}, [][2]time.Duration{{230 * ms, 230 * ms}}, nil},
		// A trigger inside the latched hold extends the open episode, the
		// pin tracks the last pin, and Held runs from the last trigger.
		{"retrigger", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(s, FBCCPin, 0, 2e6, 0.23, 0),
			mkEvent(1100*ms, FBCCTrigger, 0, 18000, 9100, 10), mkEvent(1100*ms, FBCCPin, 0, 1.8e6, 0.23, 0),
			mkEvent(1330*ms, FBCCRelease, 0, 0.23, 1.8e6, 0)},
			[]ep{{TriggerAt: s, LastTriggerAt: 1100 * ms, ReleaseAt: 1330 * ms, Triggers: 2, BufferBytes: 15000, Gamma: 9000, Streak: 10,
				RphyBps: 1.8e6, HoldS: 0.23, Complete: true}}, [][2]time.Duration{{330 * ms, 230 * ms}}, nil},
		// The watchdog closes an open episode and marks it aborted; one
		// still open at stream end stays incomplete, with no duration.
		{"watchdog abort", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(1500*ms, FBCCWatchdog, 0, 0.25, 0, 0),
			mkEvent(5*s, FBCCTrigger, 0, 20000, 9500, 12)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, ReleaseAt: 1500 * ms, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 10,
				Complete: true, Aborted: true}, {TriggerAt: 5 * s, LastTriggerAt: 5 * s, Triggers: 1, BufferBytes: 20000, Gamma: 9500, Streak: 12}},
			[][2]time.Duration{{500 * ms, 500 * ms}, {0, 0}}, nil},
		// Sub-streams reconstruct independently (shared-cell scenarios
		// interleave several sessions on one bus); a release with no open
		// episode on its sub is ignored.
		{"per sub", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(1100*ms, FBCCTrigger, 1, 12000, 8000, 10),
			mkEvent(1230*ms, FBCCRelease, 0, 0.23, 2e6, 0), mkEvent(1330*ms, FBCCRelease, 1, 0.23, 1e6, 0),
			mkEvent(2*s, FBCCRelease, 4, 0, 0, 0)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, ReleaseAt: 1230 * ms, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 10, Complete: true},
				{Sub: 1, TriggerAt: 1100 * ms, LastTriggerAt: 1100 * ms, ReleaseAt: 1330 * ms, Triggers: 1, BufferBytes: 12000, Gamma: 8000,
					Streak: 10, Complete: true}}, [][2]time.Duration{{230 * ms, 230 * ms}, {230 * ms, 230 * ms}}, nil},
		// Counts, means, the aborted/held split (MeanHeld covers only
		// cleanly released episodes) and the release→next-trigger
		// recovery gaps (770 ms, then 1.5 s).
		{"summary", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(1230*ms, FBCCRelease, 0, 0, 0, 0),
			mkEvent(2*s, FBCCTrigger, 0, 16000, 9000, 10), mkEvent(2500*ms, FBCCWatchdog, 0, 0.25, 0, 0),
			mkEvent(4*s, FBCCTrigger, 0, 17000, 9000, 10)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, ReleaseAt: 1230 * ms, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 10, Complete: true},
				{TriggerAt: 2 * s, LastTriggerAt: 2 * s, ReleaseAt: 2500 * ms, Triggers: 1, BufferBytes: 16000, Gamma: 9000, Streak: 10,
					Complete: true, Aborted: true},
				{TriggerAt: 4 * s, LastTriggerAt: 4 * s, Triggers: 1, BufferBytes: 17000, Gamma: 9000, Streak: 10}},
			[][2]time.Duration{{230 * ms, 230 * ms}, {500 * ms, 500 * ms}, {0, 0}},
			&EpisodeStats{Count: 3, Incomplete: 1, Aborted: 1, Triggers: 3, MeanDuration: 365 * ms, MaxDuration: 500 * ms,
				MeanHeld: 230 * ms, Recoveries: 2, MeanRecovery: 1135 * ms}},
		// A trigger with no release at stream end still carries its pin.
		{"open at stream end", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(s, FBCCPin, 0, 2e6, 0.23, 0)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 10, RphyBps: 2e6, HoldS: 0.23}},
			[][2]time.Duration{{0, 0}}, &EpisodeStats{Count: 1, Incomplete: 1, Triggers: 1}},
		// The pin scheduled a 500 ms hold; the watchdog trips 120 ms in. An
		// aborted episode never contributes to MeanHeld: the hold was cut
		// short, not honored.
		{"watchdog inside the hold", []Event{mkEvent(s, FBCCTrigger, 0, 15000, 9000, 10), mkEvent(s, FBCCPin, 0, 2e6, 0.5, 0),
			mkEvent(1120*ms, FBCCWatchdog, 0, 0.25, 0, 0)},
			[]ep{{TriggerAt: s, LastTriggerAt: s, ReleaseAt: 1120 * ms, Triggers: 1, BufferBytes: 15000, Gamma: 9000, Streak: 10,
				RphyBps: 2e6, HoldS: 0.5, Complete: true, Aborted: true}}, [][2]time.Duration{{120 * ms, 120 * ms}},
			&EpisodeStats{Count: 1, Aborted: 1, Triggers: 1, MeanDuration: 120 * ms, MaxDuration: 120 * ms}},
		{"empty stream", nil, nil, nil, &EpisodeStats{}},
		{"watchdog and pin with nothing open", []Event{mkEvent(s, FBCCWatchdog, 0, 0.25, 0, 0), mkEvent(2*s, FBCCPin, 0, 2e6, 0.23, 0)},
			nil, nil, &EpisodeStats{}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			eps := Episodes(r.events)
			var tr EpisodeTracker
			for i := range r.events {
				tr.Observe(&r.events[i])
			}
			if !reflect.DeepEqual(eps, r.want) || !reflect.DeepEqual(tr.Episodes(), eps) {
				t.Fatalf("%s: episodes\n got %+v\nwant %+v\nstreamed %+v", r.name, eps, r.want, tr.Episodes())
			}
			for i, e := range eps {
				if got := [2]time.Duration{e.Duration(), e.Held()}; got != r.times[i] {
					t.Fatalf("%s: episode %d Duration, Held %v, want %v", r.name, i, got, r.times[i])
				}
			}
			if st := SummarizeEpisodes(eps); r.stats != nil && st != *r.stats {
				t.Fatalf("%s: summary %+v, want %+v", r.name, st, *r.stats)
			}
		})
	}
}

// TestEpisodesFromFilteredBus: a stream filtered to kinds that never fire
// is empty, and the analyzer treats it as zero episodes.
func TestEpisodesFromFilteredBus(t *testing.T) {
	b := NewBus()
	p := b.Probe(0)
	// Only non-fbcc traffic: nothing is kept, nothing is reconstructed.
	p.Emit(1*time.Second, LTEGrant, 9000, 512, 0, 0)
	p.Emit(2*time.Second, FrameDisplay, 80, 38, 2, 0)
	var fbcc []Event
	for _, e := range b.Events() {
		switch e.Kind {
		case FBCCTrigger, FBCCPin, FBCCRelease, FBCCWatchdog:
			fbcc = append(fbcc, e)
		}
	}
	if len(fbcc) != 0 {
		t.Fatalf("filtered stream kept %d events", len(fbcc))
	}
	eps := Episodes(fbcc)
	if len(eps) != 0 {
		t.Fatalf("empty filtered bus produced %d episodes", len(eps))
	}
	if st := SummarizeEpisodes(eps); st != (EpisodeStats{}) {
		t.Fatalf("empty summary not zero: %+v", st)
	}
}

// TestExperimentAggTable: one labeled row per batch, rendered in AddBatch
// order.
func TestExperimentAggTable(t *testing.T) {
	agg := NewExperimentAgg()
	if agg.Rows() != 0 {
		t.Fatalf("fresh agg has rows")
	}
	eps := Episodes([]Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
		mkEvent(1230*time.Millisecond, FBCCRelease, 0, 0, 0, 0),
	})
	agg.AddBatch("campus/fbcc", 4, eps)
	agg.AddBatch("busy/fbcc", 4, nil)
	if agg.Rows() != 2 {
		t.Fatalf("Rows = %d", agg.Rows())
	}
	s := agg.Table().String()
	if !strings.Contains(s, "campus/fbcc") || !strings.Contains(s, "busy/fbcc") {
		t.Fatalf("labels missing:\n%s", s)
	}
	if strings.Index(s, "campus/fbcc") > strings.Index(s, "busy/fbcc") {
		t.Fatalf("rows out of AddBatch order:\n%s", s)
	}
}

// The one episode line poi360-sim and poi360-trace -view episodes share.
func TestEpisodeStatsString(t *testing.T) {
	st := EpisodeStats{Count: 3, Incomplete: 1, Aborted: 1, Triggers: 7,
		MeanDuration: 1234 * time.Millisecond, MaxDuration: 2 * time.Second, MeanHeld: 499600 * time.Microsecond}
	want := "3 congestion episodes (7 triggers), mean 1234 ms, max 2000 ms, mean hold 500 ms, 1 aborted, 1 open"
	if got := st.String(); got != want {
		t.Fatalf("got  %q\nwant %q", got, want)
	}
}
