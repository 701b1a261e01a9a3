// Package projection implements the equirectangular geometry that underlies
// POI360's tile-based compression: mapping head orientations to tiles in a
// W×H tile grid, cyclic tile distances (the panorama wraps around in yaw),
// field-of-view coverage, and per-latitude area weights.
//
// Conventions: yaw is in degrees in [0, 360) increasing eastwards; pitch is
// in degrees in [-90, +90] with +90 at the zenith. Tile (0,0) is the
// north-west corner of the equirectangular frame (yaw 0, pitch +90).
package projection

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Grid describes the tile layout of an equirectangular 360° frame.
// The POI360 prototype uses 12×8 (§5).
type Grid struct {
	W int // tiles along yaw (x)
	H int // tiles along pitch (y)
}

// DefaultGrid is the 12×8 layout used throughout the paper.
var DefaultGrid = Grid{W: 12, H: 8}

// Validate reports an error for degenerate grids.
func (g Grid) Validate() error {
	if g.W <= 0 || g.H <= 0 {
		return fmt.Errorf("projection: invalid grid %dx%d", g.W, g.H)
	}
	return nil
}

// Tiles reports the total number of tiles.
func (g Grid) Tiles() int { return g.W * g.H }

// Tile identifies one tile by its x (I, yaw axis) and y (J, pitch axis)
// position in the grid.
type Tile struct {
	I int
	J int
}

// Index flattens t into [0, W*H) in row-major order.
func (g Grid) Index(t Tile) int { return t.J*g.W + t.I }

// TileByIndex is the inverse of Index.
func (g Grid) TileByIndex(idx int) Tile {
	return Tile{I: idx % g.W, J: idx / g.W}
}

// Contains reports whether t is a valid tile of g.
func (g Grid) Contains(t Tile) bool {
	return t.I >= 0 && t.I < g.W && t.J >= 0 && t.J < g.H
}

// Orientation is a viewing direction (the ROI center direction).
type Orientation struct {
	Yaw   float64 // degrees, any value; normalized internally to [0,360)
	Pitch float64 // degrees, clamped to [-90, +90]
}

// NormalizeYaw maps an arbitrary yaw to [0, 360). A yaw inside (−360, 360)
// skips math.Mod, which is exact and returns such an argument unchanged
// (−0 included); NaN and ±Inf still reach Mod and come back NaN. A
// negative yaw so small that adding 360 rounds to 360 maps to 0.
func NormalizeYaw(yaw float64) float64 {
	y := yaw
	if !(y > -360 && y < 360) {
		y = math.Mod(y, 360)
	}
	if y < 0 {
		y += 360
		if y == 360 {
			y = 0
		}
	}
	return y
}

// ClampPitch limits pitch to [-90, 90]. The clamp is written as
// comparisons, not math.Max/Min (calls on amd64); −0 stays −0 and a NaN
// stays NaN either way.
func ClampPitch(p float64) float64 {
	if p > 90 {
		p = 90
	}
	if p < -90 {
		p = -90
	}
	return p
}

// Normalized returns o with yaw in [0,360) and pitch in [-90,90].
func (o Orientation) Normalized() Orientation {
	return Orientation{Yaw: NormalizeYaw(o.Yaw), Pitch: ClampPitch(o.Pitch)}
}

// TileAt returns the tile containing orientation o.
func (g Grid) TileAt(o Orientation) Tile {
	o = o.Normalized()
	i := int(o.Yaw / 360 * float64(g.W))
	if i >= g.W {
		i = g.W - 1
	}
	// Pitch +90 maps to row 0, pitch -90 to row H-1.
	frac := (90 - o.Pitch) / 180
	j := int(frac * float64(g.H))
	if j >= g.H {
		j = g.H - 1
	}
	return Tile{I: i, J: j}
}

// Center returns the orientation at the center of tile t.
func (g Grid) Center(t Tile) Orientation {
	yaw := (float64(t.I) + 0.5) / float64(g.W) * 360
	pitch := 90 - (float64(t.J)+0.5)/float64(g.H)*180
	return Orientation{Yaw: yaw, Pitch: pitch}
}

// CyclicDX returns the minimal absolute x-distance between columns a and b,
// accounting for yaw wrap-around (the left and right frame edges are
// adjacent on the sphere).
func (g Grid) CyclicDX(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := g.W - d; alt < d {
		d = alt
	}
	return d
}

// Distance returns the (cyclic-x, absolute-y) tile distance between a and b.
// This is the (i−i*, j−j*) pair of the paper's Eq. 1, taken as magnitudes:
// the compression level depends only on how far a tile is from the ROI
// center, not on the side it lies on.
func (g Grid) Distance(a, b Tile) (dx, dy int) {
	dx = g.CyclicDX(a.I, b.I)
	dy = a.J - b.J
	if dy < 0 {
		dy = -dy
	}
	return dx, dy
}

// AngularDistance returns the great-circle angle in degrees between two
// orientations. Used by the head-motion model and ROI-change detection.
func AngularDistance(a, b Orientation) float64 {
	a, b = a.Normalized(), b.Normalized()
	ay, ap := a.Yaw*math.Pi/180, a.Pitch*math.Pi/180
	by, bp := b.Yaw*math.Pi/180, b.Pitch*math.Pi/180
	// Spherical law of cosines with clamping for numeric safety.
	c := math.Sin(ap)*math.Sin(bp) + math.Cos(ap)*math.Cos(bp)*math.Cos(ay-by)
	c = math.Max(-1, math.Min(1, c))
	return math.Acos(c) * 180 / math.Pi
}

// FoV describes a head-mounted display's field of view in degrees.
type FoV struct {
	H float64 // horizontal extent
	V float64 // vertical extent
}

// DefaultFoV approximates a mobile VR HMD (Cardboard-class) viewport.
var DefaultFoV = FoV{H: 100, V: 90}

// VisibleTiles returns the tiles whose centers fall inside the FoV box
// centered at o. The box is cyclic in yaw and clamped in pitch. The ROI
// center tile is always included.
func (g Grid) VisibleTiles(o Orientation, fov FoV) []Tile {
	return g.AppendVisibleTiles(nil, o, fov)
}

// AppendVisibleTiles is VisibleTiles with a caller-owned destination:
// visible tiles are appended to dst[:0] and the (possibly grown) slice is
// returned, so per-frame hot paths reuse one scratch buffer instead of
// allocating the list anew every displayed frame. It is the separable test
// of Geometry.AppendVisibleTiles on the grid's memoized geometry.
func (g Grid) AppendVisibleTiles(dst []Tile, o Orientation, fov FoV) []Tile {
	return GeomFor(g).AppendVisibleTiles(dst, o, fov)
}

// AreaWeight returns the fraction of sphere area covered by one tile in row
// j: equirectangular rows near the poles cover far less solid angle than
// equatorial rows. Weights over all tiles in the grid sum to 1.
func (g Grid) AreaWeight(j int) float64 {
	// Row j spans pitch [90−(j+1)·180/H, 90−j·180/H].
	hi := (90 - float64(j)*180/float64(g.H)) * math.Pi / 180
	lo := (90 - float64(j+1)*180/float64(g.H)) * math.Pi / 180
	band := (math.Sin(hi) - math.Sin(lo)) / 2 // fraction of sphere in the row
	return band / float64(g.W)
}

// Geometry memoizes the per-grid trigonometry of tile centers: area weights,
// center yaw/pitch per column/row, and the sines and cosines the spherical
// law of cosines needs. Tile centers never move, but the per-frame hot
// paths (content weighting, FoV coverage, ROI-PSNR) evaluated them with
// fresh Sin/Cos/Mod calls on every tile of every frame. Every table entry
// is produced by exactly the expression the inline code used, so consumers
// are bit-identical. Obtain one with GeomFor.
type Geometry struct {
	g Grid
	// CenterYaw[i] / CenterPitch[j] are the tile-center angles in degrees,
	// exactly as Grid.Center returns them.
	CenterYaw   []float64
	CenterPitch []float64
	// AreaW[j] is Grid.AreaWeight(j).
	AreaW []float64
	// yawRad[i], sinPitch[j], cosPitch[j] feed ColumnCos and
	// TileCosFromCol.
	yawRad   []float64
	sinPitch []float64
	cosPitch []float64
}

// geomCache publishes the memoized geometries as an immutable map: a hit
// is one atomic load and a map read, with no lock and no reader count for
// every grid worker to write. A miss copies the map under geomMu, adds the
// new grid and publishes the copy.
var (
	geomMu    sync.Mutex
	geomCache atomic.Pointer[map[Grid]*Geometry]
)

// GeomFor returns the memoized Geometry of g (building it on first use).
// Safe for concurrent use; sessions running on different goroutines share
// the read-only tables.
func GeomFor(g Grid) *Geometry {
	if ge := cachedGeom(g); ge != nil {
		return ge
	}
	geomMu.Lock()
	defer geomMu.Unlock()
	if ge := cachedGeom(g); ge != nil {
		return ge
	}
	ge := &Geometry{
		g:           g,
		CenterYaw:   make([]float64, g.W),
		CenterPitch: make([]float64, g.H),
		AreaW:       make([]float64, g.H),
		yawRad:      make([]float64, g.W),
		sinPitch:    make([]float64, g.H),
		cosPitch:    make([]float64, g.H),
	}
	for i := 0; i < g.W; i++ {
		c := g.Center(Tile{I: i, J: 0})
		ge.CenterYaw[i] = c.Yaw
		ge.yawRad[i] = c.Yaw * math.Pi / 180
	}
	for j := 0; j < g.H; j++ {
		c := g.Center(Tile{I: 0, J: j})
		ge.CenterPitch[j] = c.Pitch
		ge.AreaW[j] = g.AreaWeight(j)
		p := c.Pitch * math.Pi / 180
		ge.sinPitch[j] = math.Sin(p)
		ge.cosPitch[j] = math.Cos(p)
	}
	m := map[Grid]*Geometry{g: ge}
	if old := geomCache.Load(); old != nil {
		maps.Copy(m, *old)
	}
	geomCache.Store(&m)
	return ge
}

// cachedGeom is the published Geometry of g, or nil.
func cachedGeom(g Grid) *Geometry {
	if m := geomCache.Load(); m != nil {
		return (*m)[g]
	}
	return nil
}

// OrientationTrig precomputes the viewer-side terms of the spherical law of
// cosines for ColumnCos and TileCosFromCol: the normalized
// orientation's yaw in radians and the sine/cosine of its pitch.
func OrientationTrig(o Orientation) (byRad, sinBp, cosBp float64) {
	b := o.Normalized()
	byRad = b.Yaw * math.Pi / 180
	bp := b.Pitch * math.Pi / 180
	return byRad, math.Sin(bp), math.Cos(bp)
}

// ColumnCos returns cos(yawRad_i − byRad), the column term of the
// spherical law of cosines for column i: the exact Cos argument
// AngularDistance uses for a tile center of that column. It depends only on
// the column, so a consumer scanning many tiles of one orientation
// evaluates it once per column it visits.
func (ge *Geometry) ColumnCos(i int, byRad float64) float64 {
	return math.Cos(ge.yawRad[i] - byRad)
}

// TileCosFromCol returns the clamped spherical cosine between the viewer
// orientation and the center of a tile in row j whose column cosine (from
// ColumnCos) is colCos. It is AngularDistance between the tile center
// and the orientation stopped before the Acos — same operand grouping,
// same clamp — for consumers (the fovea kernel) that operate on the cosine
// domain directly. The clamp is written as comparisons, not math.Max/Min
// (calls on amd64); −0 stays −0 and a NaN stays NaN either way.
func (ge *Geometry) TileCosFromCol(j int, colCos, sinBp, cosBp float64) float64 {
	c := ge.sinPitch[j]*sinBp + ge.cosPitch[j]*cosBp*colCos
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// AppendVisibleTiles appends the tiles of VisibleTiles to dst[:0]. The
// FoV box test is separable (the yaw test depends only on the column, the
// pitch test only on the row), so it evaluates W+H comparisons instead of
// W·H, scans only the visible rows plus the centre tile, and emits the
// tiles in row-major order. Grids up to 64 tiles a side keep the
// per-column and per-row flags on the stack; larger ones allocate them.
func (ge *Geometry) AppendVisibleTiles(dst []Tile, o Orientation, fov FoV) []Tile {
	g := ge.g
	o = o.Normalized()
	center := g.TileAt(o)
	var colBuf, rowBuf [64]bool
	colVis, rowVis := colBuf[:], rowBuf[:]
	if g.W > len(colBuf) {
		colVis = make([]bool, g.W)
	}
	if g.H > len(rowBuf) {
		rowVis = make([]bool, g.H)
	}
	colVis, rowVis = colVis[:g.W], rowVis[:g.H]
	for i := range colVis {
		dyaw := math.Abs(NormalizeYaw(ge.CenterYaw[i] - o.Yaw))
		if dyaw > 180 {
			dyaw = 360 - dyaw
		}
		colVis[i] = dyaw <= fov.H/2
	}
	for j := range rowVis {
		rowVis[j] = math.Abs(ge.CenterPitch[j]-o.Pitch) <= fov.V/2
	}
	out := dst[:0]
	for j := 0; j < g.H; j++ {
		if !rowVis[j] {
			if j == center.J {
				out = append(out, center)
			}
			continue
		}
		for i := 0; i < g.W; i++ {
			if colVis[i] || (i == center.I && j == center.J) {
				out = append(out, Tile{I: i, J: j})
			}
		}
	}
	return out
}
