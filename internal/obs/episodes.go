package obs

import (
	"fmt"
	"sync"
	"time"

	"poi360/internal/trace"
)

// Episode is one reconstructed FBCC congestion episode: the Eq. 3 trigger
// opened it, retriggers during the latched hold extend it, and either the
// hold expiry released it (Eq. 6) or the diag-staleness watchdog aborted
// it. An episode still open when the stream ends is marked incomplete.
type Episode struct {
	// Sub is the emitting sub-stream (session index).
	Sub int32
	// TriggerAt is the first Eq. 3 trigger of the episode.
	TriggerAt time.Duration
	// LastTriggerAt is the latest (re)trigger; the 2-RTT hold of Eq. 6
	// runs from here.
	LastTriggerAt time.Duration
	// ReleaseAt is when the controller unlatched (release or abort);
	// meaningful only when Complete.
	ReleaseAt time.Duration
	// Triggers counts Eq. 3 firings inside the episode (≥ 1).
	Triggers int
	// BufferBytes, Gamma and Streak are the detector inputs at the first
	// trigger: firmware-buffer level B, long-term average Γ, and the
	// rising-report streak length.
	BufferBytes float64
	Gamma       float64
	Streak      float64
	// RphyBps is the Eq. 4/5 bandwidth the encoder was pinned to at the
	// last pin.
	RphyBps float64
	// HoldS is the scheduled hold (seconds) of the last pin — HoldRTTs×RTT.
	HoldS float64
	// Complete is true when the episode closed inside the stream.
	Complete bool
	// Aborted is true when the watchdog (not a hold expiry) ended it.
	Aborted bool
}

// Duration is the trigger→release span (0 while incomplete).
func (e Episode) Duration() time.Duration {
	if !e.Complete {
		return 0
	}
	return e.ReleaseAt - e.TriggerAt
}

// Held is the last-trigger→release span — the hold actually honored
// (0 while incomplete).
func (e Episode) Held() time.Duration {
	if !e.Complete {
		return 0
	}
	return e.ReleaseAt - e.LastTriggerAt
}

// EpisodeTracker reconstructs congestion episodes incrementally from a
// stream of fbcc.* events observed in emission order — the streaming form
// of Episodes, built so aggregation never has to retain the event stream.
// The zero value is ready; feed it every event via Observe (non-fbcc
// kinds are ignored) and read Episodes when the stream ends.
type EpisodeTracker struct {
	open map[int32]int // sub → index into eps of the open episode
	eps  []Episode
}

// Observe folds one event.
func (t *EpisodeTracker) Observe(e *Event) {
	switch e.Kind {
	case FBCCTrigger:
		if j, ok := t.open[e.Sub]; ok {
			// Retrigger inside the latched hold: extend the episode.
			t.eps[j].Triggers++
			t.eps[j].LastTriggerAt = e.At
			return
		}
		if t.open == nil {
			t.open = map[int32]int{}
		}
		t.open[e.Sub] = len(t.eps)
		t.eps = append(t.eps, Episode{
			Sub:           e.Sub,
			TriggerAt:     e.At,
			LastTriggerAt: e.At,
			Triggers:      1,
			BufferBytes:   e.A,
			Gamma:         e.B,
			Streak:        e.C,
		})
	case FBCCPin:
		if j, ok := t.open[e.Sub]; ok {
			t.eps[j].RphyBps = e.A
			t.eps[j].HoldS = e.B
		}
	case FBCCRelease:
		if j, ok := t.open[e.Sub]; ok {
			t.eps[j].ReleaseAt = e.At
			t.eps[j].Complete = true
			delete(t.open, e.Sub)
		}
	case FBCCWatchdog:
		if j, ok := t.open[e.Sub]; ok {
			t.eps[j].ReleaseAt = e.At
			t.eps[j].Complete = true
			t.eps[j].Aborted = true
			delete(t.open, e.Sub)
		}
	}
}

// Episodes returns the reconstructed episodes in first-trigger order.
// Episodes still open (no release or abort yet) appear incomplete; the
// slice is owned by the tracker.
func (t *EpisodeTracker) Episodes() []Episode { return t.eps }

// Episodes reconstructs the congestion episodes of an event stream from
// its fbcc.* events, grouped per sub-stream, in stream order. The stream
// must be in emission order (as Bus.Events returns it).
func Episodes(events []Event) []Episode {
	var t EpisodeTracker
	for i := range events {
		t.Observe(&events[i])
	}
	return t.Episodes()
}

// EpisodeStats summarizes a set of episodes.
type EpisodeStats struct {
	// Count is the number of episodes (complete + incomplete).
	Count int
	// Incomplete episodes were still open when the stream ended.
	Incomplete int
	// Aborted episodes were ended by the watchdog, not a hold expiry.
	Aborted int
	// Triggers is the total Eq. 3 firing count across episodes.
	Triggers int
	// MeanDuration / MaxDuration cover complete episodes
	// (trigger→release).
	MeanDuration time.Duration
	MaxDuration  time.Duration
	// MeanHeld is the mean last-trigger→release span of cleanly released
	// episodes — how long the Eq. 6 hold was actually honored.
	MeanHeld time.Duration
	// MeanRecovery is the mean gap from one episode's release to the next
	// episode's trigger on the same sub-stream (how long the uplink
	// stayed uncongested).
	MeanRecovery time.Duration
	// Recoveries is the number of gaps MeanRecovery averages over.
	Recoveries int
}

// String is the one-line episode summary both poi360-sim and
// poi360-trace -view episodes print.
func (st EpisodeStats) String() string {
	return fmt.Sprintf("%d congestion episodes (%d triggers), mean %.0f ms, max %.0f ms, mean hold %.0f ms, %d aborted, %d open",
		st.Count, st.Triggers,
		1e3*st.MeanDuration.Seconds(), 1e3*st.MaxDuration.Seconds(), 1e3*st.MeanHeld.Seconds(),
		st.Aborted, st.Incomplete)
}

// SummarizeEpisodes folds episodes (in stream order, as Episodes returns
// them) into aggregate statistics.
func SummarizeEpisodes(eps []Episode) EpisodeStats {
	var st EpisodeStats
	st.Count = len(eps)
	var durSum, heldSum, recSum time.Duration
	var durN, heldN int
	lastRelease := map[int32]time.Duration{}
	for _, e := range eps {
		st.Triggers += e.Triggers
		// A recovery gap closes at the next trigger regardless of whether
		// the new episode itself completes inside the stream.
		if rel, ok := lastRelease[e.Sub]; ok && e.TriggerAt > rel {
			recSum += e.TriggerAt - rel
			st.Recoveries++
		}
		if !e.Complete {
			st.Incomplete++
			continue
		}
		if e.Aborted {
			st.Aborted++
		}
		d := e.Duration()
		durSum += d
		durN++
		if d > st.MaxDuration {
			st.MaxDuration = d
		}
		if !e.Aborted {
			heldSum += e.Held()
			heldN++
		}
		lastRelease[e.Sub] = e.ReleaseAt
	}
	if durN > 0 {
		st.MeanDuration = durSum / time.Duration(durN)
	}
	if heldN > 0 {
		st.MeanHeld = heldSum / time.Duration(heldN)
	}
	if st.Recoveries > 0 {
		st.MeanRecovery = recSum / time.Duration(st.Recoveries)
	}
	return st
}

// ExperimentAgg accumulates episode statistics across the batches of an
// experiment (one labeled row per batch, in AddBatch order). It is safe
// for concurrent AddBatch calls — the parallel engine's batches fold
// sequentially, but independent experiments may share one aggregator.
type ExperimentAgg struct {
	mu   sync.Mutex
	rows []aggRow
}

type aggRow struct {
	label    string
	sessions int
	stats    EpisodeStats
}

// NewExperimentAgg creates an empty aggregator.
func NewExperimentAgg() *ExperimentAgg { return &ExperimentAgg{} }

// AddBatch records the episodes of one batch (sessions ran under the
// given label).
func (a *ExperimentAgg) AddBatch(label string, sessions int, eps []Episode) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows = append(a.rows, aggRow{label: label, sessions: sessions, stats: SummarizeEpisodes(eps)})
}

// Rows reports how many batches have been recorded.
func (a *ExperimentAgg) Rows() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rows)
}

// Table renders one row per batch: episode count, triggers, mean/max
// duration, honored hold, recovery gap, and watchdog aborts. Rows appear
// in AddBatch order, so a sequentially-driven experiment renders
// deterministically.
func (a *ExperimentAgg) Table() *trace.Table {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := trace.New("obs-episodes", "FBCC congestion episodes (trigger → pin → 2-RTT hold → release)",
		"batch", "sessions", "episodes", "triggers", "mean dur", "max dur", "mean held", "mean recovery", "aborted", "open")
	for _, r := range a.rows {
		t.Add(
			r.label,
			trace.F(float64(r.sessions), 0),
			trace.F(float64(r.stats.Count), 0),
			trace.F(float64(r.stats.Triggers), 0),
			trace.Ms(float64(r.stats.MeanDuration)/float64(time.Millisecond)),
			trace.Ms(float64(r.stats.MaxDuration)/float64(time.Millisecond)),
			trace.Ms(float64(r.stats.MeanHeld)/float64(time.Millisecond)),
			trace.Ms(float64(r.stats.MeanRecovery)/float64(time.Millisecond)),
			trace.F(float64(r.stats.Aborted), 0),
			trace.F(float64(r.stats.Incomplete), 0),
		)
	}
	return t
}
