package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"poi360/internal/projection"
)

// Property: every matrix value lies in [LMin, LevelCap] and the ROI center
// is always LMin, for any ROI position and mode constant.
func TestPropertyMatrixBounds(t *testing.T) {
	f := func(i, j uint8, cRaw float64) bool {
		roi := projection.Tile{I: int(i) % g.W, J: int(j) % g.H}
		c := 1.05 + mod1(cRaw)*0.9 // C in (1.05, 1.95)
		m := ModeMatrix(g, roi, c)
		if m[g.Index(roi)] != LMin {
			return false
		}
		for _, l := range m {
			if l < LMin || l > LevelCap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mod1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x >= 1 {
		x /= 10
	}
	return x
}

// Property: the matrix is symmetric in yaw around the ROI column (cyclic),
// because Eq. 1 depends only on |distance|.
func TestPropertyMatrixYawSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		roi := projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
		c := 1.1 + rng.Float64()*0.7
		m := ModeMatrix(g, roi, c)
		for d := 1; d <= g.W/2; d++ {
			left := (roi.I - d + g.W) % g.W
			right := (roi.I + d) % g.W
			for j := 0; j < g.H; j++ {
				li := m[g.Index(projection.Tile{I: left, J: j})]
				ri := m[g.Index(projection.Tile{I: right, J: j})]
				if li != ri {
					t.Fatalf("asymmetry at d=%d j=%d: %v vs %v", d, j, li, ri)
				}
			}
		}
	}
}

// Property: mode matrices are pointwise monotone in C — a more aggressive
// mode never assigns a *lower* level anywhere.
func TestPropertyMatrixMonotoneInC(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 100; iter++ {
		roi := projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
		c1 := 1.1 + rng.Float64()*0.3
		c2 := c1 + 0.05 + rng.Float64()*0.4
		m1 := ModeMatrix(g, roi, c1)
		m2 := ModeMatrix(g, roi, c2)
		for idx := range m1 {
			if m2[idx]+1e-12 < m1[idx] {
				t.Fatalf("C=%v assigns lower level than C=%v at %d", c2, c1, idx)
			}
		}
	}
}

// Property: the adaptive controller's mode is a nondecreasing function of M.
func TestPropertyModeMonotoneInM(t *testing.T) {
	a := NewAdaptive(g)
	prev := 0
	for ms := 0; ms <= 3000; ms += 25 {
		a.ObserveMismatch(time.Duration(ms) * time.Millisecond)
		if a.mode < prev {
			t.Fatalf("mode decreased from %d to %d at M=%dms", prev, a.mode, ms)
		}
		prev = a.mode
	}
	if prev != len(DefaultModeCs()) {
		t.Fatalf("mode never saturated: %d", prev)
	}
}

// Property: the mismatch estimator's window average never exceeds the
// largest raw M it has seen within the window.
func TestPropertyMismatchAverageBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewMismatchEstimator(g, 700*time.Millisecond)
	now := time.Duration(0)
	const maxDV = 400 * time.Millisecond
	for i := 0; i < 500; i++ {
		now += 33 * time.Millisecond
		tile := projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
		level := 1.0
		if rng.Intn(3) == 0 {
			level = 1 + rng.Float64()*10
		}
		dv := time.Duration(rng.Intn(int(maxDV)))
		m := e.Observe(now, tile, level, dv)
		// Raw M is bounded by max(elapsed time, dv); so is the average.
		if m > now+maxDV {
			t.Fatalf("window M %v exceeds its bound at t=%v", m, now)
		}
		if m < 0 {
			t.Fatalf("negative window M %v", m)
		}
	}
}
