package headmotion

import (
	"math"
	"testing"
	"time"

	"poi360/internal/projection"
)

// TestPredictor feeds each row's samples (instant in ms, yaw, pitch) to a
// fresh predictor and holds its prediction for the target instant.
func TestPredictor(t *testing.T) {
	type sample struct{ ms, yaw, pitch float64 }
	for _, r := range []struct {
		name     string
		samples  []sample
		targetMs float64
		want     projection.Orientation
	}{
		{"no samples: zero orientation", nil, 1000, projection.Orientation{}},
		{"one sample holds", []sample{{1000, 90, 10}}, 2000, projection.Orientation{Yaw: 90, Pitch: 10}},
		{"linear extrapolation at 100°/s", []sample{{0, 100, 0}, {100, 110, 0}}, 200, projection.Orientation{Yaw: 120}},
		// 100°/s, but only predictionHorizon (120 ms) ahead.
		{"horizon clamped", []sample{{0, 0, 0}, {100, 10, 0}}, 1100, projection.Orientation{Yaw: 22}},
		{"across the yaw seam", []sample{{0, 355, 0}, {100, 5, 0}}, 200, projection.Orientation{Yaw: 15}},
		// A duplicate timestamp and an older sample are ignored.
		{"stale samples", []sample{{100, 50, 0}, {100, 90, 0}, {50, 90, 0}}, 200, projection.Orientation{Yaw: 50}},
		{"a target in the past holds the present", []sample{{0, 0, 0}, {100, 10, 0}}, 50, projection.Orientation{Yaw: 10}},
		// 89° + 9°, inside the horizon: clamped at the pole.
		{"pitch clamped", []sample{{0, 0, 80}, {100, 0, 89}}, 200, projection.Orientation{Pitch: 90}},
	} {
		t.Run(r.name, func(t *testing.T) {
			p := NewPredictor()
			for _, s := range r.samples {
				p.Observe(time.Duration(s.ms*float64(time.Millisecond)), projection.Orientation{Yaw: s.yaw, Pitch: s.pitch})
			}
			got := p.Predict(time.Duration(r.targetMs * float64(time.Millisecond)))
			if math.Abs(got.Yaw-r.want.Yaw) > 1e-9 || math.Abs(got.Pitch-r.want.Pitch) > 1e-9 {
				t.Fatalf("predicted %+v, want %+v", got, r.want)
			}
		})
	}
}
