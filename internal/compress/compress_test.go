package compress

import (
	"math"
	"testing"
	"time"

	"poi360/internal/projection"
)

var g = projection.DefaultGrid

func TestModeMatrixCenterIsLMin(t *testing.T) {
	roi := projection.Tile{I: 5, J: 3}
	m := ModeMatrix(g, roi, 1.5)
	if got := m[g.Index(roi)]; got != LMin {
		t.Fatalf("ROI center level %v, want %v", got, LMin)
	}
}

func TestModeMatrixEq1(t *testing.T) {
	roi := projection.Tile{I: 0, J: 0}
	C := 1.4
	m := ModeMatrix(g, roi, C)
	// Tile (2,3): dx=2, dy=3 → C^(5−plateau).
	want := math.Pow(C, 5-ModePlateau)
	if got := m[g.Index(projection.Tile{I: 2, J: 3})]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("level = %v, want %v", got, want)
	}
	// Cyclic: tile (11,1) is dx=1, dy=1 from (0,0) → C^(2−plateau).
	if got := m[g.Index(projection.Tile{I: 11, J: 1})]; math.Abs(got-math.Pow(C, 2-ModePlateau)) > 1e-12 {
		t.Fatalf("wrap level = %v, want %v", got, math.Pow(C, 2-ModePlateau))
	}
}

func TestModeMatrixMonotoneInDistance(t *testing.T) {
	roi := projection.Tile{I: 6, J: 4}
	m := ModeMatrix(g, roi, 1.3)
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			t1 := projection.Tile{I: i, J: j}
			dx, dy := g.Distance(t1, roi)
			for _, t2 := range []projection.Tile{{I: i, J: j}} {
				dx2, dy2 := g.Distance(t2, roi)
				if dx+dy < dx2+dy2 && m[g.Index(t1)] > m[g.Index(t2)] {
					t.Fatalf("closer tile has higher level")
				}
			}
		}
	}
	// The farthest possible tile has the deepest level.
	deep := m[g.Index(roi)]
	for idx := range m {
		if m[idx] > deep {
			deep = m[idx]
		}
	}
	// Max distance from (6,4): dx = W/2 = 6 (cyclic), dy = 4 (to row 0),
	// minus the plateau, bounded by the level cap.
	want := math.Min(LevelCap, math.Pow(1.3, float64(g.W/2+4-ModePlateau)))
	if deep != want {
		t.Fatalf("max level %v, want %v", deep, want)
	}
}

func TestModeMatrixBadCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("C=1 did not panic")
		}
	}()
	ModeMatrix(g, projection.Tile{}, 1.0)
}

func TestCompressedFraction(t *testing.T) {
	m := make(Matrix, 4)
	for i := range m {
		m[i] = 2
	}
	if got := m.CompressedFraction(nil); got != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
	// Weighted: one heavy uncompressed tile dominates.
	m2 := Matrix{1, 10}
	f := m2.CompressedFraction([]float64{9, 1})
	if math.Abs(f-(9+0.1)/10) > 1e-12 {
		t.Fatalf("weighted fraction = %v", f)
	}
}

func TestAggressivenessOrdering(t *testing.T) {
	roi := projection.Tile{I: 6, J: 4}
	steep := ModeMatrix(g, roi, 1.8).CompressedFraction(nil)
	flat := ModeMatrix(g, roi, 1.1).CompressedFraction(nil)
	if steep >= flat {
		t.Fatalf("steeper mode should keep fewer bits: steep=%v flat=%v", steep, flat)
	}
}

func TestDefaultModeCs(t *testing.T) {
	cs := DefaultModeCs()
	if len(cs) != 8 {
		t.Fatalf("want 8 modes, got %d", len(cs))
	}
	if cs[0] != 1.8 || cs[7] != 1.1 {
		t.Fatalf("mode range wrong: %v", cs)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] >= cs[i-1] {
			t.Fatal("modes must decrease in aggressiveness")
		}
	}
}

func TestAdaptiveModeSelection(t *testing.T) {
	a := NewAdaptive(g)
	cases := []struct {
		m    time.Duration
		want int
	}{
		{0, 1},
		{50 * time.Millisecond, 1},
		{200 * time.Millisecond, 1},
		{201 * time.Millisecond, 2},
		{750 * time.Millisecond, 4},
		{1600 * time.Millisecond, 8},
		{10 * time.Second, 8}, // saturates at K=8
	}
	for _, c := range cases {
		a.ObserveMismatch(c.m)
		if a.mode != c.want {
			t.Errorf("M=%v → mode %d, want %d", c.m, a.mode, c.want)
		}
	}
}

func TestAdaptiveLevelsFollowMode(t *testing.T) {
	a := NewAdaptive(g)
	roi := projection.Tile{I: 3, J: 3}
	a.ObserveMismatch(0)
	mAgg, mode1 := a.Levels(roi)
	if mode1 != 1 {
		t.Fatalf("mode label %d, want 1", mode1)
	}
	a.ObserveMismatch(2 * time.Second)
	mCons, mode8 := a.Levels(roi)
	if mode8 != 8 {
		t.Fatalf("mode label %d, want 8", mode8)
	}
	if mAgg.CompressedFraction(nil) >= mCons.CompressedFraction(nil) {
		t.Fatal("aggressive mode should keep fewer bits than conservative")
	}
	if c := DefaultModeCs()[a.mode-1]; c != 1.1 {
		t.Fatalf("mode C = %v, want 1.1", c)
	}
}

func TestConduitTwoLevels(t *testing.T) {
	c := NewConduit(g)
	roi := projection.Tile{I: 6, J: 4}
	m, _ := c.Levels(roi)
	levels := map[float64]bool{}
	for _, l := range m {
		levels[l] = true
	}
	if len(levels) != 2 {
		t.Fatalf("Conduit has %d levels, want 2", len(levels))
	}
	if !levels[LMin] || !levels[ConduitNonROILevel] {
		t.Fatalf("levels %v", levels)
	}
	if m[g.Index(roi)] != LMin {
		t.Fatal("ROI not at LMin")
	}
}

func TestConduitMostAggressive(t *testing.T) {
	roi := projection.Tile{I: 6, J: 4}
	conduit, _ := NewConduit(g).Levels(roi)
	pyramid, _ := NewPyramid(g).Levels(roi)
	if conduit.CompressedFraction(nil) >= pyramid.CompressedFraction(nil) {
		t.Fatal("Conduit should keep fewer bits than Pyramid")
	}
}

func TestPyramidSmooth(t *testing.T) {
	p := NewPyramid(g)
	roi := projection.Tile{I: 6, J: 4}
	m, _ := p.Levels(roi)
	// Beyond the plateau, the adjacent-tile level ratio is exactly
	// PyramidC: smooth decay.
	l1 := m[g.Index(projection.Tile{I: 7, J: 4})] // dx+dy = 1: inside plateau
	l2 := m[g.Index(projection.Tile{I: 8, J: 4})] // dx+dy = 2
	l3 := m[g.Index(projection.Tile{I: 9, J: 4})] // dx+dy = 3
	if l1 != LMin {
		t.Fatalf("plateau tile level %v, want %v", l1, LMin)
	}
	if math.Abs(l3/l2-PyramidC) > 1e-12 {
		t.Fatalf("adjacent ratio %v, want %v", l3/l2, PyramidC)
	}
}

func TestBenchmarksDoNotAdapt(t *testing.T) {
	roi := projection.Tile{I: 2, J: 2}
	c := NewConduit(g)
	p := NewPyramid(g)
	f := NewFixed(g, 1.5)
	before := [][]float64{}
	for _, ctrl := range []Controller{c, p, f} {
		m, _ := ctrl.Levels(roi)
		before = append(before, m)
	}
	for _, ctrl := range []Controller{c, p, f} {
		ctrl.ObserveMismatch(5 * time.Second)
	}
	for k, ctrl := range []Controller{c, p, f} {
		m, _ := ctrl.Levels(roi)
		for idx := range m {
			if m[idx] != before[k][idx] {
				t.Fatalf("benchmark controller %d adapted", k)
			}
		}
	}
}

// TestFamilyResolvesLevelsLabel checks that every label Levels returns
// names, through Family, the very matrix Levels returned, and that labels
// a controller never returns resolve to nothing.
func TestFamilyResolvesLevelsLabel(t *testing.T) {
	roi := projection.Tile{I: 7, J: 1}
	a := NewAdaptive(g)
	ctrls := []Controller{NewConduit(g), NewPyramid(g), NewFixed(g, 1.5), a}
	for k := 1; k <= len(DefaultModeCs()); k++ {
		m := NewAdaptive(g)
		m.ObserveMismatch(time.Duration(k) * ModeQuantum)
		ctrls = append(ctrls, m)
	}
	for i, ctrl := range ctrls {
		m, label := ctrl.Levels(roi)
		fam, ok := ctrl.Family(label)
		if !ok || &fam.Matrix(roi)[0] != &m[0] {
			t.Fatalf("controller %d: Family(%d) does not hold the matrix Levels returned", i, label)
		}
	}
	for _, label := range []int{-1, 9, 77} {
		if _, ok := a.Family(label); ok {
			t.Fatalf("Adaptive answered label %d", label)
		}
		if _, ok := ctrls[0].Family(label); ok {
			t.Fatalf("Conduit answered label %d", label)
		}
	}
	if _, ok := a.Family(0); ok {
		t.Fatal("Adaptive answered the static label 0")
	}
	if _, ok := ctrls[1].Family(1); ok {
		t.Fatal("Pyramid answered an adaptive mode label")
	}
}

func TestFixedBadCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFixed(g, 0.9)
}

func TestMismatchSteadyStateIsFrameDelay(t *testing.T) {
	e := NewMismatchEstimator(g, time.Second)
	roi := projection.Tile{I: 5, J: 4}
	dv := 120 * time.Millisecond
	var m time.Duration
	for i := 0; i < 60; i++ {
		now := time.Duration(i) * 33 * time.Millisecond
		m = e.Observe(now, roi, LMin, dv)
	}
	if m != dv {
		t.Fatalf("steady-state M = %v, want %v", m, dv)
	}
}

func TestMismatchGrowsDuringROIChange(t *testing.T) {
	e := NewMismatchEstimator(g, 500*time.Millisecond)
	dv := 100 * time.Millisecond
	roiA := projection.Tile{I: 5, J: 4}
	roiB := projection.Tile{I: 8, J: 4}
	// Converged on A for a while.
	for i := 0; i < 30; i++ {
		e.Observe(time.Duration(i)*33*time.Millisecond, roiA, LMin, dv)
	}
	// Switch to B; sender still compresses for A, so level at B is high.
	base := 30 * 33 * time.Millisecond
	var m time.Duration
	for i := 0; i < 15; i++ {
		now := base + time.Duration(i)*33*time.Millisecond
		m = e.Observe(now, roiB, 1.5, dv)
	}
	if m <= dv {
		t.Fatalf("M during mismatch = %v, should exceed dv %v", m, dv)
	}
	// Sender catches up: level at B returns to LMin; M decays toward dv.
	base += 15 * 33 * time.Millisecond
	for i := 0; i < 40; i++ {
		now := base + time.Duration(i)*33*time.Millisecond
		m = e.Observe(now, roiB, LMin, dv)
	}
	if m != dv {
		t.Fatalf("M after convergence = %v, want %v", m, dv)
	}
}

func TestMismatchConsecutiveSwitchesRestartClock(t *testing.T) {
	e := NewMismatchEstimator(g, 200*time.Millisecond)
	dv := 50 * time.Millisecond
	// Converge.
	for i := 0; i < 10; i++ {
		e.Observe(time.Duration(i)*33*time.Millisecond, projection.Tile{I: 1, J: 1}, LMin, dv)
	}
	// Switch at t=330ms, never converges, keeps switching.
	m1 := e.Observe(330*time.Millisecond, projection.Tile{I: 4, J: 4}, 2, dv)
	m2 := e.Observe(660*time.Millisecond, projection.Tile{I: 7, J: 4}, 2, dv)
	_ = m1
	// After the second switch the clock restarted at 660ms, so the raw M
	// there is dv, not 330ms.
	if m2 > 330*time.Millisecond {
		t.Fatalf("consecutive switch M = %v, restart expected", m2)
	}
}

func TestMismatchLowQualityWithoutSwitchCounts(t *testing.T) {
	e := NewMismatchEstimator(g, 300*time.Millisecond)
	dv := 50 * time.Millisecond
	roi := projection.Tile{I: 5, J: 4}
	// First frames arrive already mismatched (e.g. lost feedback).
	var m time.Duration
	for i := 0; i < 10; i++ {
		m = e.Observe(time.Duration(i)*33*time.Millisecond, roi, 3.0, dv)
	}
	if m <= dv {
		t.Fatalf("persistent low quality M = %v, should grow beyond dv", m)
	}
}

func TestMismatchWindowAverages(t *testing.T) {
	e := NewMismatchEstimator(g, time.Second)
	roi := projection.Tile{I: 0, J: 0}
	m1 := e.Observe(0, roi, LMin, 100*time.Millisecond)
	m2 := e.Observe(33*time.Millisecond, roi, LMin, 300*time.Millisecond)
	if m1 != 100*time.Millisecond {
		t.Fatalf("m1 = %v", m1)
	}
	if m2 != 200*time.Millisecond {
		t.Fatalf("m2 = %v, want mean 200ms", m2)
	}
}

func TestMismatchEstimatorBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMismatchEstimator(g, 0)
}

func BenchmarkModeMatrix(b *testing.B) {
	roi := projection.Tile{I: 6, J: 4}
	for i := 0; i < b.N; i++ {
		ModeMatrix(g, roi, 1.5)
	}
}
