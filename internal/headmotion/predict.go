package headmotion

import (
	"time"

	"poi360/internal/projection"
)

// Predictor extrapolates the viewer's orientation from its recent feedback
// samples — the motion-based ROI prediction the paper discusses in §8:
// head position is predictable only over a short horizon (~120 ms at
// typical angular dynamics), which is below the end-to-end latency of
// mobile interactive video, so prediction alone cannot fix ROI staleness.
// The predictor exists to test exactly that claim (see the abl-predict
// experiment).
type Predictor struct {
	hasPrev, hasCur bool
	prevAt, curAt   time.Duration
	prev, cur       projection.Orientation
}

// predictionHorizon clamps how far ahead the extrapolation reaches: the
// reliable limit the paper cites from the Oculus head-tracking study —
// beyond ~120 ms the head's acceleration makes positions unpredictable [21].
const predictionHorizon = 120 * time.Millisecond

// NewPredictor creates a motion predictor.
func NewPredictor() *Predictor { return &Predictor{} }

// Observe records one ROI feedback sample (orientation o reported at time
// at). Samples must arrive in time order; duplicates are ignored.
func (p *Predictor) Observe(at time.Duration, o projection.Orientation) {
	if p.hasCur && at <= p.curAt {
		return
	}
	p.prev, p.prevAt, p.hasPrev = p.cur, p.curAt, p.hasCur
	p.cur, p.curAt, p.hasCur = o.Normalized(), at, true
}

// Predict extrapolates the orientation to target time. With fewer than two
// samples it returns the latest observation (or the zero orientation).
// The extrapolation distance is clamped to predictionHorizon.
func (p *Predictor) Predict(target time.Duration) projection.Orientation {
	if !p.hasCur {
		return projection.Orientation{}
	}
	if !p.hasPrev || p.curAt <= p.prevAt {
		return p.cur
	}
	dt := target - p.curAt
	if dt <= 0 {
		return p.cur
	}
	if dt > predictionHorizon {
		dt = predictionHorizon
	}
	span := (p.curAt - p.prevAt).Seconds()
	yawVel := shortestYawDelta(p.prev.Yaw, p.cur.Yaw) / span
	pitchVel := (p.cur.Pitch - p.prev.Pitch) / span
	sec := dt.Seconds()
	return projection.Orientation{
		Yaw:   projection.NormalizeYaw(p.cur.Yaw + yawVel*sec),
		Pitch: projection.ClampPitch(p.cur.Pitch + pitchVel*sec),
	}
}
