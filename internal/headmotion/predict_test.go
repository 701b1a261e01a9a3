package headmotion

import (
	"math"
	"testing"
	"time"

	"poi360/internal/projection"
)

func TestPredictorNoSamples(t *testing.T) {
	p := NewPredictor()
	if p.Predict(time.Second) != (projection.Orientation{}) {
		t.Fatal("empty predictor should return zero orientation")
	}
}

func TestPredictorSingleSampleHolds(t *testing.T) {
	p := NewPredictor()
	o := projection.Orientation{Yaw: 90, Pitch: 10}
	p.Observe(time.Second, o)
	got := p.Predict(2 * time.Second)
	if got != o.Normalized() {
		t.Fatalf("single-sample prediction %v, want hold %v", got, o)
	}
}

func TestPredictorLinearExtrapolation(t *testing.T) {
	p := NewPredictor()
	p.Observe(0, projection.Orientation{Yaw: 100})
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 110}) // 100°/s
	got := p.Predict(200 * time.Millisecond)
	if math.Abs(got.Yaw-120) > 1e-9 {
		t.Fatalf("predicted yaw %v, want 120", got.Yaw)
	}
}

func TestPredictorHorizonClamped(t *testing.T) {
	p := NewPredictor()
	p.Observe(0, projection.Orientation{Yaw: 0})
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 10}) // 100°/s
	// Ask 1 s ahead: extrapolation must stop at 120 ms → 10 + 12°.
	got := p.Predict(1100 * time.Millisecond)
	if math.Abs(got.Yaw-22) > 1e-9 {
		t.Fatalf("clamped prediction yaw %v, want 22", got.Yaw)
	}
}

func TestPredictorWrapAround(t *testing.T) {
	p := NewPredictor()
	p.Observe(0, projection.Orientation{Yaw: 355})
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 5}) // +100°/s across the seam
	got := p.Predict(200 * time.Millisecond)
	if math.Abs(got.Yaw-15) > 1e-9 {
		t.Fatalf("wrap prediction yaw %v, want 15", got.Yaw)
	}
}

func TestPredictorIgnoresStaleSamples(t *testing.T) {
	p := NewPredictor()
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 50})
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 90}) // duplicate timestamp: ignored
	p.Observe(50*time.Millisecond, projection.Orientation{Yaw: 90})  // older: ignored
	if got := p.Predict(200 * time.Millisecond); got.Yaw != 50 {
		t.Fatalf("stale samples should be ignored, got yaw %v", got.Yaw)
	}
}

func TestPredictorPastTargetReturnsCurrent(t *testing.T) {
	p := NewPredictor()
	p.Observe(0, projection.Orientation{Yaw: 0})
	p.Observe(100*time.Millisecond, projection.Orientation{Yaw: 10})
	if got := p.Predict(50 * time.Millisecond); got.Yaw != 10 {
		t.Fatalf("past-target prediction should hold current, got %v", got.Yaw)
	}
}

func TestPredictorPitchClamped(t *testing.T) {
	p := NewPredictor()
	p.Observe(0, projection.Orientation{Pitch: 80})
	p.Observe(100*time.Millisecond, projection.Orientation{Pitch: 89})
	got := p.Predict(200 * time.Millisecond) // 89° + 9°, inside the horizon
	if got.Pitch > 90 {
		t.Fatalf("pitch %v exceeds pole", got.Pitch)
	}
}
