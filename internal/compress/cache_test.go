package compress

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"poi360/internal/projection"
)

// TestSharedMatrixBitIdentical pins the memoization determinism contract:
// for every paper mode and every possible ROI center on the 12×8 grid, the
// cached matrix equals ModeMatrix's direct computation bit for bit (==,
// not approximately). A cached trajectory may never diverge from what the
// unmemoized code would have produced.
func TestSharedMatrixBitIdentical(t *testing.T) {
	g := projection.DefaultGrid
	for _, c := range DefaultModeCs() {
		fam := FamilyFor(g, c)
		for j := 0; j < g.H; j++ {
			for i := 0; i < g.W; i++ {
				roi := projection.Tile{I: i, J: j}
				direct := ModeMatrix(g, roi, c)
				shared := fam.Matrix(roi)
				if len(direct) != len(shared) {
					t.Fatalf("C=%g roi=%v: len %d vs %d", c, roi, len(shared), len(direct))
				}
				for k := range direct {
					if shared[k] != direct[k] {
						t.Fatalf("C=%g roi=%v tile %d: cached %v != direct %v (bit-identity violated)",
							c, roi, k, shared[k], direct[k])
					}
				}
			}
		}
	}
}

// TestSharedMatrixBitIdenticalRandomGrids extends the contract to
// arbitrary grid shapes and mode constants, including ones where C^d
// saturates at LevelCap (large C on a wide grid) — the clamp must be
// applied in exactly the same expression on both paths.
func TestSharedMatrixBitIdenticalRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := projection.Grid{W: 1 + rng.Intn(16), H: 1 + rng.Intn(12)}
		c := 1.05 + rng.Float64()*2.5 // up to 3.55: deep LevelCap saturation
		fam := FamilyFor(g, c)
		// Sample ROI centers rather than sweeping W·H·W·H on every trial.
		for s := 0; s < 8; s++ {
			roi := projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
			direct := ModeMatrix(g, roi, c)
			shared := fam.Matrix(roi)
			for k := range direct {
				if shared[k] != direct[k] {
					t.Fatalf("grid %dx%d C=%v roi=%v tile %d: cached %v != direct %v",
						g.W, g.H, c, roi, k, shared[k], direct[k])
				}
			}
		}
	}
}

// TestSharedMatrixSaturation checks LevelCap saturation explicitly: with a
// large C on the default grid, far tiles must sit exactly at LevelCap in
// both the direct and cached matrices.
func TestSharedMatrixSaturation(t *testing.T) {
	g := projection.DefaultGrid
	const c = 3.0
	roi := projection.Tile{I: 0, J: 0}
	direct := ModeMatrix(g, roi, c)
	shared := FamilyFor(g, c).Matrix(roi)
	far := projection.Tile{I: g.W / 2, J: g.H - 1}
	if got := shared[g.Index(far)]; got != LevelCap {
		t.Fatalf("far tile level = %v, want saturation at %v", got, LevelCap)
	}
	if direct[g.Index(far)] != shared[g.Index(far)] {
		t.Fatalf("saturated levels differ between direct and cached paths")
	}
}

// TestFamilySharedAcrossControllers verifies the cache actually shares:
// two adaptive controllers on the same grid hand out the same backing
// array for the same (mode, ROI) — the zero-allocation property rests on
// this — and repeated lookups return stable views.
func TestFamilySharedAcrossControllers(t *testing.T) {
	g := projection.DefaultGrid
	a1 := NewAdaptive(g)
	a2 := NewAdaptive(g)
	roi := projection.Tile{I: 3, J: 2}
	m1, _ := a1.Levels(roi)
	m2, _ := a2.Levels(roi)
	if &m1[0] != &m2[0] {
		t.Fatalf("controllers on the same grid should share one memoized matrix")
	}
	m3, _ := a1.Levels(roi)
	if &m1[0] != &m3[0] {
		t.Fatalf("repeated lookups should return the same shared view")
	}
}

// TestConduitMaskMemoizedBitIdentical pins Conduit's crop mask: the cached
// two-level mask equals the obvious direct computation, and two Conduit
// controllers share one copy.
func TestConduitMaskMemoizedBitIdentical(t *testing.T) {
	g := projection.DefaultGrid
	c1 := NewConduit(g)
	c2 := NewConduit(g)
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			roi := projection.Tile{I: i, J: j}
			m, _ := c1.Levels(roi)
			for k := 0; k < g.Tiles(); k++ {
				t2 := g.TileByIndex(k)
				dx, dy := g.Distance(t2, roi)
				want := ConduitNonROILevel
				if dx <= ConduitCropRing && dy <= ConduitCropRing {
					want = LMin
				}
				if m[k] != want {
					t.Fatalf("roi=%v tile %v: mask %v, want %v", roi, t2, m[k], want)
				}
			}
			m2, _ := c2.Levels(roi)
			if &m[0] != &m2[0] {
				t.Fatalf("roi=%v: Conduit mask not shared across controllers", roi)
			}
		}
	}
}

// TestPerfModeMatrixZeroAlloc is the CI allocation gate for the per-frame
// compress path: once a controller is constructed,
// producing the Eq. 1 matrix for a frame must allocate nothing at all.
func TestPerfModeMatrixZeroAlloc(t *testing.T) {
	g := projection.DefaultGrid
	a := NewAdaptive(g)
	con := NewConduit(g)
	pyr := NewPyramid(g)
	fam := FamilyFor(g, 1.5)
	roi := projection.Tile{I: 6, J: 4}
	var sink Matrix
	checks := []struct {
		name string
		fn   func()
	}{
		{"Adaptive.Levels", func() { sink, _ = a.Levels(roi) }},
		{"Conduit.Levels", func() { sink, _ = con.Levels(roi) }},
		{"Pyramid.Levels", func() { sink, _ = pyr.Levels(roi) }},
		{"ModeFamily.Matrix", func() { sink = fam.Matrix(roi) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0 (per-frame matrix path must not allocate)", c.name, allocs)
		}
	}
	_ = sink
}

// TestPerfAdaptiveSwitchZeroAlloc extends the gate through a mode switch:
// steering the controller with mismatch feedback and re-resolving the
// matrix still allocates nothing, because every mode's family was resolved
// at construction.
func TestPerfAdaptiveSwitchZeroAlloc(t *testing.T) {
	g := projection.DefaultGrid
	a := NewAdaptive(g)
	roi := projection.Tile{I: 2, J: 5}
	var sink Matrix
	m := []time.Duration{0, 400 * time.Millisecond}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		a.ObserveMismatch(m[i&1])
		i++
		sink, _ = a.Levels(roi)
	}); allocs != 0 {
		t.Errorf("mode-switching matrix path: %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}

// BenchmarkModeMatrixCached measures the memoized per-frame path — a
// family lookup plus a slice index — against BenchmarkModeMatrix's direct
// recomputation. The contract is 0 B/op, 0 allocs/op.
func BenchmarkModeMatrixCached(b *testing.B) {
	fam := FamilyFor(g, 1.5)
	roi := projection.Tile{I: 6, J: 4}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fam.Matrix(roi)[0]
	}
	if math.IsNaN(sink) {
		b.Fatal("impossible")
	}
}
