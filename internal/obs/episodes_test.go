package obs

import (
	"strings"
	"testing"
	"time"
)

// mkEvent is a shorthand for synthetic episode streams.
func mkEvent(at time.Duration, k Kind, sub int32, a, b, c float64) Event {
	return Event{At: at, Kind: k, Sub: sub, A: a, B: b, C: c}
}

// TestEpisodesBasic: trigger → pin → release reconstructs one complete
// episode with the detector inputs and pin parameters attached.
func TestEpisodesBasic(t *testing.T) {
	ev := []Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 11),
		mkEvent(1*time.Second, FBCCPin, 0, 2.5e6, 0.23, 0),
		mkEvent(1230*time.Millisecond, FBCCRelease, 0, 0.23, 2.5e6, 0),
	}
	eps := Episodes(ev)
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1", len(eps))
	}
	e := eps[0]
	if !e.Complete || e.Aborted {
		t.Fatalf("episode state wrong: %+v", e)
	}
	if e.Triggers != 1 || e.BufferBytes != 15000 || e.Gamma != 9000 || e.Streak != 11 {
		t.Fatalf("detector inputs lost: %+v", e)
	}
	if e.RphyBps != 2.5e6 || e.HoldS != 0.23 {
		t.Fatalf("pin parameters lost: %+v", e)
	}
	if e.Duration() != 230*time.Millisecond || e.Held() != 230*time.Millisecond {
		t.Fatalf("duration/held wrong: %v / %v", e.Duration(), e.Held())
	}
}

// TestEpisodesRetrigger: a trigger inside the latched hold extends the open
// episode instead of opening a new one, and Held runs from the last trigger.
func TestEpisodesRetrigger(t *testing.T) {
	ev := []Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
		mkEvent(1*time.Second, FBCCPin, 0, 2e6, 0.23, 0),
		mkEvent(1100*time.Millisecond, FBCCTrigger, 0, 18000, 9100, 10),
		mkEvent(1100*time.Millisecond, FBCCPin, 0, 1.8e6, 0.23, 0),
		mkEvent(1330*time.Millisecond, FBCCRelease, 0, 0.23, 1.8e6, 0),
	}
	eps := Episodes(ev)
	if len(eps) != 1 {
		t.Fatalf("retrigger split the episode: %d", len(eps))
	}
	e := eps[0]
	if e.Triggers != 2 {
		t.Fatalf("Triggers = %d, want 2", e.Triggers)
	}
	if e.TriggerAt != 1*time.Second || e.LastTriggerAt != 1100*time.Millisecond {
		t.Fatalf("trigger anchors wrong: %+v", e)
	}
	if e.RphyBps != 1.8e6 {
		t.Fatalf("pin must track the last pin: %g", e.RphyBps)
	}
	if e.Duration() != 330*time.Millisecond || e.Held() != 230*time.Millisecond {
		t.Fatalf("duration/held wrong: %v / %v", e.Duration(), e.Held())
	}
}

// TestEpisodesWatchdogAbort: the watchdog closes an open episode and marks
// it aborted; an episode still open at stream end stays incomplete.
func TestEpisodesWatchdogAbort(t *testing.T) {
	ev := []Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
		mkEvent(1500*time.Millisecond, FBCCWatchdog, 0, 0.25, 0, 0),
		mkEvent(5*time.Second, FBCCTrigger, 0, 20000, 9500, 12),
	}
	eps := Episodes(ev)
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2", len(eps))
	}
	if !eps[0].Complete || !eps[0].Aborted {
		t.Fatalf("watchdog must close+abort: %+v", eps[0])
	}
	if eps[1].Complete {
		t.Fatalf("open episode must stay incomplete: %+v", eps[1])
	}
	if eps[1].Duration() != 0 || eps[1].Held() != 0 {
		t.Fatalf("incomplete episodes have no duration")
	}
}

// TestEpisodesPerSub: sub-streams reconstruct independently (shared-cell
// scenarios interleave several sessions on one bus).
func TestEpisodesPerSub(t *testing.T) {
	ev := []Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
		mkEvent(1100*time.Millisecond, FBCCTrigger, 1, 12000, 8000, 10),
		mkEvent(1230*time.Millisecond, FBCCRelease, 0, 0.23, 2e6, 0),
		mkEvent(1330*time.Millisecond, FBCCRelease, 1, 0.23, 1e6, 0),
	}
	eps := Episodes(ev)
	if len(eps) != 2 {
		t.Fatalf("got %d episodes, want 2", len(eps))
	}
	if eps[0].Sub != 0 || eps[1].Sub != 1 {
		t.Fatalf("sub attribution wrong: %+v", eps)
	}
	for _, e := range eps {
		if !e.Complete || e.Held() != 230*time.Millisecond {
			t.Fatalf("per-sub reconstruction broke: %+v", e)
		}
	}
	// A release with no open episode on its sub is ignored.
	orphan := Episodes([]Event{mkEvent(time.Second, FBCCRelease, 4, 0, 0, 0)})
	if len(orphan) != 0 {
		t.Fatalf("orphan release created an episode")
	}
}

// TestSummarizeEpisodes: counts, means, the aborted/held split, and the
// release→next-trigger recovery gap.
func TestSummarizeEpisodes(t *testing.T) {
	if st := SummarizeEpisodes(nil); st.Count != 0 || st.MeanDuration != 0 {
		t.Fatalf("empty summary not zero: %+v", st)
	}
	ev := []Event{
		mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
		mkEvent(1230*time.Millisecond, FBCCRelease, 0, 0, 0, 0),
		// 770 ms recovery, then a watchdog-aborted episode.
		mkEvent(2*time.Second, FBCCTrigger, 0, 16000, 9000, 10),
		mkEvent(2500*time.Millisecond, FBCCWatchdog, 0, 0.25, 0, 0),
		// Still-open episode at stream end.
		mkEvent(4*time.Second, FBCCTrigger, 0, 17000, 9000, 10),
	}
	st := SummarizeEpisodes(Episodes(ev))
	if st.Count != 3 || st.Incomplete != 1 || st.Aborted != 1 || st.Triggers != 3 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.MeanDuration != (230+500)/2*time.Millisecond {
		t.Fatalf("MeanDuration = %v", st.MeanDuration)
	}
	if st.MaxDuration != 500*time.Millisecond {
		t.Fatalf("MaxDuration = %v", st.MaxDuration)
	}
	// MeanHeld covers only cleanly released episodes.
	if st.MeanHeld != 230*time.Millisecond {
		t.Fatalf("MeanHeld = %v", st.MeanHeld)
	}
	if st.Recoveries != 2 || st.MeanRecovery != (770+1500)/2*time.Millisecond {
		t.Fatalf("recovery stats wrong: %+v", st)
	}
}

// TestEpisodesEdgeCases: the analyzer's boundary behavior — streams that
// end mid-episode, a watchdog trip inside the 2-RTT hold, and buses whose
// filter leaves nothing to analyze.
func TestEpisodesEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		check  func(t *testing.T, eps []Episode, st EpisodeStats)
	}{
		{
			name: "trigger with no release at stream end",
			events: []Event{
				mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
				mkEvent(1*time.Second, FBCCPin, 0, 2e6, 0.23, 0),
			},
			check: func(t *testing.T, eps []Episode, st EpisodeStats) {
				if len(eps) != 1 || eps[0].Complete || eps[0].Aborted {
					t.Fatalf("want one open episode: %+v", eps)
				}
				if eps[0].RphyBps != 2e6 {
					t.Fatalf("open episode must still carry its pin: %+v", eps[0])
				}
				if st.Count != 1 || st.Incomplete != 1 || st.MeanDuration != 0 || st.MeanHeld != 0 {
					t.Fatalf("open-episode summary wrong: %+v", st)
				}
			},
		},
		{
			name: "watchdog fires inside the 2-RTT hold",
			events: []Event{
				mkEvent(1*time.Second, FBCCTrigger, 0, 15000, 9000, 10),
				mkEvent(1*time.Second, FBCCPin, 0, 2e6, 0.5, 0),
				// The pin scheduled a 500 ms hold; the watchdog trips
				// 120 ms in, well before the hold would have expired.
				mkEvent(1120*time.Millisecond, FBCCWatchdog, 0, 0.25, 0, 0),
			},
			check: func(t *testing.T, eps []Episode, st EpisodeStats) {
				if len(eps) != 1 || !eps[0].Complete || !eps[0].Aborted {
					t.Fatalf("watchdog inside the hold must close+abort: %+v", eps)
				}
				if eps[0].Duration() != 120*time.Millisecond {
					t.Fatalf("Duration = %v, want 120ms", eps[0].Duration())
				}
				// An aborted episode never contributes to MeanHeld — the
				// hold was cut short, not honored.
				if st.Aborted != 1 || st.MeanHeld != 0 {
					t.Fatalf("aborted hold leaked into MeanHeld: %+v", st)
				}
				if st.MeanDuration != 120*time.Millisecond {
					t.Fatalf("MeanDuration = %v", st.MeanDuration)
				}
			},
		},
		{
			name:   "empty stream",
			events: nil,
			check: func(t *testing.T, eps []Episode, st EpisodeStats) {
				if len(eps) != 0 || st != (EpisodeStats{}) {
					t.Fatalf("empty stream produced state: %+v %+v", eps, st)
				}
			},
		},
		{
			name: "watchdog with nothing open",
			events: []Event{
				mkEvent(1*time.Second, FBCCWatchdog, 0, 0.25, 0, 0),
				mkEvent(2*time.Second, FBCCPin, 0, 2e6, 0.23, 0),
			},
			check: func(t *testing.T, eps []Episode, st EpisodeStats) {
				if len(eps) != 0 || st.Count != 0 {
					t.Fatalf("orphan watchdog/pin created episodes: %+v", eps)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := Episodes(tc.events)
			tc.check(t, eps, SummarizeEpisodes(eps))

			// The streaming tracker must agree event for event.
			var tr EpisodeTracker
			for i := range tc.events {
				tr.Observe(&tc.events[i])
			}
			streamed := tr.Episodes()
			if len(streamed) != len(eps) {
				t.Fatalf("tracker found %d episodes, batch found %d", len(streamed), len(eps))
			}
			for i := range eps {
				if streamed[i] != eps[i] {
					t.Fatalf("tracker episode %d differs: %+v vs %+v", i, streamed[i], eps[i])
				}
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
