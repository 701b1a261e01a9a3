package compress

import (
	"math/rand"
	"testing"
	"time"

	"poi360/internal/projection"
)

// refMismatch is MismatchEstimator as it was before its window became a
// fifo.Queue with a running sum: a slice compacted on every eviction and
// summed in full on every observation.
type refMismatch struct {
	window   time.Duration
	samples  []struct{ at, m time.Duration }
	init     bool
	lastTile projection.Tile
	pending  bool
	t0       time.Duration
}

func (e *refMismatch) Observe(now time.Duration, actualROI projection.Tile, spatialLevelAtROI float64, frameDelay time.Duration) time.Duration {
	if !e.init {
		e.init = true
		e.lastTile = actualROI
	}
	if actualROI != e.lastTile {
		e.t0 = now
		e.pending = true
		e.lastTile = actualROI
	}
	var m time.Duration
	switch {
	case spatialLevelAtROI <= LMin+lMinEps:
		e.pending = false
		m = frameDelay
	case e.pending:
		m = max(now-e.t0, frameDelay)
	default:
		e.t0 = now
		e.pending = true
		m = frameDelay
	}
	e.samples = append(e.samples, struct{ at, m time.Duration }{now, m})
	cut := 0
	for cut < len(e.samples) && now-e.samples[cut].at > e.window {
		cut++
	}
	e.samples = e.samples[:copy(e.samples, e.samples[cut:])]
	var sum time.Duration
	for _, s := range e.samples {
		sum += s.m
	}
	return sum / time.Duration(len(e.samples))
}

// TestMismatchMatchesCompactingReference drives the estimator and the
// reference with one seeded tape per window: frame gaps of 0 to 70 ms and
// jumps past the window (everything but the newest sample expires), gaps
// that put the oldest sample exactly on the window's edge, ROI switches,
// converged and unconverged levels and frame delays of 0 to 400 ms.
func TestMismatchMatchesCompactingReference(t *testing.T) {
	for seed, window := range []time.Duration{33 * time.Millisecond, 200 * time.Millisecond, time.Second, 3 * time.Second} {
		rng := rand.New(rand.NewSource(int64(seed + 1)))
		got, ref := NewMismatchEstimator(g, window), &refMismatch{window: window}
		now, roi := time.Duration(0), projection.Tile{I: 5, J: 4}
		var ats []time.Duration
		for i := 0; i < 20000; i++ {
			switch d := rng.Intn(50); {
			case d == 0:
				now += window + time.Duration(rng.Intn(3))*time.Millisecond
			case d == 1 && len(ats) > 0:
				now = max(now, ats[max(len(ats)-5, 0)]+window) // the oldest kept sample on the edge
			default:
				now += time.Duration(rng.Intn(71)) * time.Millisecond
			}
			ats = append(ats, now)
			if rng.Intn(20) == 0 {
				roi = projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
			}
			level := LMin
			if rng.Intn(3) == 0 {
				level = 1 + 3*rng.Float64()
			}
			dv := time.Duration(rng.Intn(401)) * time.Millisecond
			if a, b := got.Observe(now, roi, level, dv), ref.Observe(now, roi, level, dv); a != b {
				t.Fatalf("window %v step %d @%v: M = %v, reference %v", window, i, now, a, b)
			}
		}
	}
}
