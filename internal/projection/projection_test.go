package projection

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// A grid validates only with both sides positive; Index and TileByIndex
// are inverse on its tiles, and so are TileAt and Center.
func TestGridIndexing(t *testing.T) {
	g := DefaultGrid
	t.Run("Validate", func(t *testing.T) {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Grid{{0, 8}, {12, 0}, {-1, -1}} {
			if bad.Validate() == nil {
				t.Fatalf("grid %+v validated", bad)
			}
		}
	})
	t.Run("RoundTrips", func(t *testing.T) {
		for idx := 0; idx < g.Tiles(); idx++ {
			tl := g.TileByIndex(idx)
			if !g.Contains(tl) || g.Index(tl) != idx || g.TileAt(g.Center(tl)) != tl {
				t.Fatalf("tile %d is %v: contained %v, Index %d, TileAt(Center) %v", idx, tl, g.Contains(tl), g.Index(tl), g.TileAt(g.Center(tl)))
			}
		}
	})
}

func TestNormalizeYawAndClampPitch(t *testing.T) {
	t.Run("NormalizeYaw", func(t *testing.T) {
		for _, c := range []struct{ in, want float64 }{{0, 0}, {360, 0}, {-90, 270}, {450, 90}, {720.5, 0.5}} {
			if got := NormalizeYaw(c.in); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("NormalizeYaw(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	})
	t.Run("ClampPitch", func(t *testing.T) {
		if ClampPitch(120) != 90 || ClampPitch(-120) != -90 || ClampPitch(10) != 10 {
			t.Fatal("ClampPitch wrong")
		}
	})
}

func TestTileAtCorners(t *testing.T) {
	g := DefaultGrid
	if tl := g.TileAt(Orientation{Yaw: 0, Pitch: 90}); tl != (Tile{0, 0}) {
		t.Fatalf("NW corner = %v", tl)
	}
	if tl := g.TileAt(Orientation{Yaw: 359.9, Pitch: -90}); tl != (Tile{11, 7}) {
		t.Fatalf("SE corner = %v", tl)
	}
	// Equator, yaw 180 → middle of grid.
	tl := g.TileAt(Orientation{Yaw: 180, Pitch: 0})
	if tl.I != 6 || tl.J != 4 {
		t.Fatalf("equator mid = %v, want {6 4}", tl)
	}
}

func TestCyclicDX(t *testing.T) {
	g := DefaultGrid // W=12
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 11, 1}, {0, 6, 6}, {2, 10, 4}, {11, 0, 1},
	}
	for _, c := range cases {
		if got := g.CyclicDX(c.a, c.b); got != c.want {
			t.Errorf("CyclicDX(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	g := DefaultGrid
	a, b := Tile{1, 2}, Tile{10, 7}
	dx1, dy1 := g.Distance(a, b)
	dx2, dy2 := g.Distance(b, a)
	if dx1 != dx2 || dy1 != dy2 {
		t.Fatalf("Distance not symmetric: (%d,%d) vs (%d,%d)", dx1, dy1, dx2, dy2)
	}
	if dx1 != 3 || dy1 != 5 {
		t.Fatalf("Distance = (%d,%d), want (3,5)", dx1, dy1)
	}
}

func TestAngularDistance(t *testing.T) {
	cases := []struct {
		a, b Orientation
		want float64
	}{
		{Orientation{0, 0}, Orientation{0, 0}, 0},
		{Orientation{0, 0}, Orientation{180, 0}, 180},
		{Orientation{0, 0}, Orientation{90, 0}, 90},
		{Orientation{0, 90}, Orientation{123, -90}, 180},
		{Orientation{0, 0}, Orientation{0, 45}, 45},
		{Orientation{350, 0}, Orientation{10, 0}, 20},
	}
	for _, c := range cases {
		if got := AngularDistance(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("AngularDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// The visible set holds the ROI centre tile and, looking at yaw ≈ 0,
// tiles on both frame edges (the box wraps in yaw), but not every tile.
func TestVisibleTiles(t *testing.T) {
	g := DefaultGrid
	for name, o := range map[string]Orientation{"IncludesCenter": {Yaw: 45, Pitch: 10}, "WrapAround": {Yaw: 2, Pitch: 0}} {
		t.Run(name, func(t *testing.T) {
			vis := g.VisibleTiles(o, DefaultFoV)
			center, left, right := false, false, false
			for _, tl := range vis {
				center = center || tl == g.TileAt(o)
				left = left || tl.I == 0
				right = right || tl.I == g.W-1
			}
			if !center || len(vis) >= g.Tiles() || o.Yaw == 2 && !(left && right) {
				t.Fatalf("%+v: visible %v (centre %v, left edge %v, right edge %v)", o, vis, center, left, right)
			}
		})
	}
}

// Area weights are positive, sum to 1 over the grid, and are largest at
// the equator.
func TestAreaWeights(t *testing.T) {
	g := DefaultGrid
	sum := 0.0
	for j := 0; j < g.H; j++ {
		w := g.AreaWeight(j)
		if w <= 0 {
			t.Fatalf("AreaWeight(%d) = %v", j, w)
		}
		sum += w * float64(g.W)
	}
	if math.Abs(sum-1) > 1e-9 || g.AreaWeight(g.H/2) <= g.AreaWeight(0) {
		t.Fatalf("area weights sum to %v; equator %v, pole %v", sum, g.AreaWeight(g.H/2), g.AreaWeight(0))
	}
}

// Property: TileAt always yields an in-grid tile for any orientation.
func TestPropertyTileAtInGrid(t *testing.T) {
	g := DefaultGrid
	f := func(yaw, pitch float64) bool {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
			return true
		}
		return g.Contains(g.TileAt(Orientation{Yaw: yaw, Pitch: pitch}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cyclic distance is at most W/2 and symmetric.
func TestPropertyCyclicDXBounds(t *testing.T) {
	g := DefaultGrid
	f := func(a, b uint8) bool {
		i, j := int(a)%g.W, int(b)%g.W
		d := g.CyclicDX(i, j)
		return d == g.CyclicDX(j, i) && d >= 0 && d <= g.W/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: angular distance is a metric-ish quantity: symmetric, in
// [0,180], zero iff same direction (up to normalization).
func TestPropertyAngularDistance(t *testing.T) {
	f := func(y1, p1, y2, p2 float64) bool {
		bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
		if bad(y1) || bad(p1) || bad(y2) || bad(p2) {
			return true
		}
		a := Orientation{Yaw: y1, Pitch: p1}
		b := Orientation{Yaw: y2, Pitch: p2}
		d1, d2 := AngularDistance(a, b), AngularDistance(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVisibleTiles(b *testing.B) {
	g := DefaultGrid
	o := Orientation{Yaw: 123, Pitch: -20}
	for i := 0; i < b.N; i++ {
		g.VisibleTiles(o, DefaultFoV)
	}
}

// TestGeomForSharesOneGeometryPerGrid asks for several grids from
// concurrent goroutines, each in its own order, so that misses on
// different grids race to publish their copies of the cache: every caller
// must get the one Geometry of each grid, built for that grid, and none
// may be lost by a later publication.
func TestGeomForSharesOneGeometryPerGrid(t *testing.T) {
	grids := []Grid{{W: 3, H: 2}, {W: 5, H: 3}, {W: 7, H: 5}, {W: 9, H: 4}, {W: 11, H: 6}}
	const workers = 4
	got := make([][]*Geometry, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*Geometry, len(grids))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range grids {
				k := (i + w) % len(grids)
				got[w][k] = GeomFor(grids[k])
			}
		}()
	}
	wg.Wait()
	for k, g := range grids {
		ge := GeomFor(g)
		if ge.g != g || len(ge.CenterYaw) != g.W || len(ge.AreaW) != g.H {
			t.Fatalf("GeomFor(%v) built the tables of %v", g, ge.g)
		}
		for w := range got {
			if got[w][k] != ge {
				t.Fatalf("worker %d got a second Geometry of %v", w, g)
			}
		}
	}
}
