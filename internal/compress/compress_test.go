package compress

import (
	"math"
	"testing"
	"time"

	"poi360/internal/projection"
)

var g = projection.DefaultGrid

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

// A closer tile never gets a deeper level: in every mode's matrix for every
// ROI, dx1+dy1 < dx2+dy2 implies m[t1] <= m[t2]. The farthest tile from
// (6,4) holds the deepest level.
func TestModeMatrixMonotoneInDistance(t *testing.T) {
	for _, c := range DefaultModeCs() {
		for r := range g.Tiles() {
			roi, m := g.TileByIndex(r), FamilyFor(g, c).Matrix(g.TileByIndex(r))
			for i1 := range m {
				dx1, dy1 := g.Distance(g.TileByIndex(i1), roi)
				for i2 := range m {
					if dx2, dy2 := g.Distance(g.TileByIndex(i2), roi); dx1+dy1 < dx2+dy2 && m[i1] > m[i2] {
						t.Fatalf("C=%v roi %v: tile %d (distance %d) deeper than tile %d (distance %d)", c, roi, i1, dx1+dy1, i2, dx2+dy2)
					}
				}
			}
		}
	}
	roi := projection.Tile{I: 6, J: 4}
	m := ModeMatrix(g, roi, 1.3)
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

// TestMismatchEstimator feeds each row's segments — n observations, step
// apart from start, of one ROI at one level with one frame delay — and
// holds M after each segment to its check.
func TestMismatchEstimator(t *testing.T) {
	ms := time.Millisecond
	a, b, c := projection.Tile{I: 5, J: 4}, projection.Tile{I: 8, J: 4}, projection.Tile{I: 1, J: 1}
	type seg struct {
		n           int
		start, step time.Duration
		roi         projection.Tile
		level       float64
		dv          time.Duration
		ok          func(m time.Duration) bool
	}
	is := func(want time.Duration) func(time.Duration) bool {
		return func(m time.Duration) bool { return m == want }
	}
	above := func(d time.Duration) func(time.Duration) bool { return func(m time.Duration) bool { return m > d } }
	for _, r := range []struct {
		name   string
		window time.Duration
		segs   []seg
	}{
		// At the lowest level the mismatch is the frame delay.
		{"steady state", time.Second, []seg{{60, 0, 33 * ms, a, LMin, 120 * ms, is(120 * ms)}}},
		// During an ROI change M grows past the frame delay, and returns to
		// it once the new ROI converges.
		{"ROI change", 500 * ms, []seg{{30, 0, 33 * ms, a, LMin, 100 * ms, is(100 * ms)}, {15, 990 * ms, 33 * ms, b, 1.5, 100 * ms, above(100 * ms)},
			{40, 1485 * ms, 33 * ms, b, LMin, 100 * ms, is(100 * ms)}}},
		// A second switch restarts the clock.
		{"consecutive switches", 200 * ms, []seg{{10, 0, 33 * ms, c, LMin, 50 * ms, nil}, {1, 330 * ms, 0, projection.Tile{I: 4, J: 4}, 2, 50 * ms, nil},
			{1, 660 * ms, 0, projection.Tile{I: 7, J: 4}, 2, 50 * ms, func(m time.Duration) bool { return m <= 330*ms }}}},
		// Persistent low quality without a switch counts too.
		{"low quality, no switch", 300 * ms, []seg{{10, 0, 33 * ms, a, 3, 50 * ms, above(50 * ms)}}},
		// M is the window's mean.
		{"window mean", time.Second, []seg{{1, 0, 0, c, LMin, 100 * ms, is(100 * ms)}, {1, 33 * ms, 0, c, LMin, 300 * ms, is(200 * ms)}}},
	} {
		t.Run(r.name, func(t *testing.T) {
			e := NewMismatchEstimator(g, r.window)
			for k, sg := range r.segs {
				var m time.Duration
				for i := 0; i < sg.n; i++ {
					m = e.Observe(sg.start+time.Duration(i)*sg.step, sg.roi, sg.level, sg.dv)
				}
				if sg.ok != nil && !sg.ok(m) {
					t.Fatalf("%s: segment %d leaves M = %v", r.name, k, m)
				}
			}
		})
	}
}

// Mode constants at or below 1 and a non-positive window are refused.
func TestBadArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"ModeMatrix C=1":             func() { ModeMatrix(g, projection.Tile{}, 1.0) },
		"NewFixed C=0.9":             func() { NewFixed(g, 0.9) },
		"NewMismatchEstimator(g, 0)": func() { NewMismatchEstimator(g, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s did not panic", name)
					}
				}()
				fn()
			}()
		})
	}
}

func BenchmarkModeMatrix(b *testing.B) {
	roi := projection.Tile{I: 6, J: 4}
	for i := 0; i < b.N; i++ {
		ModeMatrix(g, roi, 1.5)
	}
}
