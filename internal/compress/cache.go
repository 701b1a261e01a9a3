package compress

import (
	"fmt"
	"math"
	"sync"

	"poi360/internal/projection"
)

// Eq. 1 is a pure function of the grid geometry, the ROI center, and the
// mode constant C: l(i,j) = min(LevelCap, C^max(0, dx+dy−plateau)) with dx
// cyclic in yaw. For the paper's 12×8 grid that is K=8 modes × 96 ROI
// centers of 96-entry matrices — a few hundred KB — yet the original
// implementation rebuilt one matrix with 96 math.Pow calls and a fresh
// allocation for every outgoing frame. Tile-based 360° systems make
// exactly this precompute-vs-recompute trade (Pano's per-tile quality
// tables; Ghosh et al.'s tile rate-adaptation LUTs), and so does this
// reproduction: ModeFamily memoizes the full matrix family of one
// (grid, C) pair, process-wide, so every controller of every concurrent
// session shares one read-only copy and the per-frame matrix lookup is a
// slice index — zero allocations, zero math.Pow.
//
// # Determinism contract
//
// Memoized matrices are bit-identical (==, not approximately equal) to
// the output of ModeMatrix, the direct-computation oracle in the tests:
// each distance d computes the same math.Min(LevelCap, math.Pow(C,
// float64(d))) expression the direct path evaluates, once, and every tile
// at distance d shares that value.
// TestSharedMatrixBitIdentical pins this per element.
//
// # Ownership
//
// Returned matrices are shared and read-only. Callers (controllers, the
// encoder, frame metadata riding to the receiver) must never write to
// them; mutating a shared matrix would corrupt every session in the
// process. All constructors in this package hand out only these views.

// familyKey identifies one memoized Eq. 1 matrix family.
type familyKey struct {
	w, h int
	c    float64
}

// conduitKey identifies the memoized Conduit crop-mask family of one grid.
// It is a type of its own, so it never equals a familyKey in familyCache.
type conduitKey projection.Grid

// familyCache holds every memoized family: familyKey → *ModeFamily for
// Eq. 1, conduitKey → *ModeFamily for Conduit's masks.
var familyCache sync.Map

// ModeFamily is a memoized matrix family of one grid: one shared
// read-only Matrix per possible ROI center. FamilyFor returns the Eq. 1
// family of a mode constant C; NewConduit holds the family of Conduit's
// two-level crop masks. Families are cached process-wide and safe for
// concurrent use once built (they are immutable after construction).
type ModeFamily struct {
	g    projection.Grid
	mats []Matrix // indexed by g.Index(roi); each of length g.Tiles()
}

// FamilyFor returns the memoized matrix family for (g, C), building it on
// first use. It panics on C ≤ 1 or an invalid grid, mirroring ModeMatrix.
func FamilyFor(g projection.Grid, C float64) *ModeFamily {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	key := familyKey{w: g.W, h: g.H, c: C}
	if f, ok := familyCache.Load(key); ok {
		return f.(*ModeFamily)
	}
	if C <= 1 {
		panic(fmt.Sprintf("compress: mode constant C must exceed 1, got %g", C))
	}
	// The level depends only on the clamped tile distance
	// d = max(0, dx+dy−plateau), so the expensive part — one math.Pow per
	// distinct d, the same expression ModeMatrix evaluates per tile — runs
	// once into a level-by-distance row. The cyclic yaw distance peaks at
	// ⌊W/2⌋ and the pitch distance at H−1.
	byDist := make([]float64, max(0, g.W/2+(g.H-1)-ModePlateau)+1)
	for d := range byDist {
		byDist[d] = math.Min(LevelCap, math.Pow(C, float64(d)))
	}
	return buildFamily(key, g, func(dx, dy int) float64 {
		return byDist[max(0, dx+dy-ModePlateau)]
	})
}

// conduitFamily returns the memoized family of Conduit's crop masks: the
// ROI tile and ConduitCropRing rings around it at LMin, every other tile
// at ConduitNonROILevel.
func conduitFamily(g projection.Grid) *ModeFamily {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	key := conduitKey(g)
	if f, ok := familyCache.Load(key); ok {
		return f.(*ModeFamily)
	}
	return buildFamily(key, g, func(dx, dy int) float64 {
		if dx <= ConduitCropRing && dy <= ConduitCropRing {
			return LMin
		}
		return ConduitNonROILevel
	})
}

// buildFamily materializes every ROI center's matrix on g — tile t of the
// matrix centered on roi holds level(g.Distance(t, roi)) — and caches the
// family under key. Concurrent first builds race benignly: both produce
// identical immutable values and LoadOrStore keeps exactly one.
func buildFamily(key any, g projection.Grid, level func(dx, dy int) float64) *ModeFamily {
	f := &ModeFamily{g: g, mats: make([]Matrix, g.Tiles())}
	backing := make([]float64, g.Tiles()*g.Tiles()) // one block, W·H matrices
	for rj := 0; rj < g.H; rj++ {
		for ri := 0; ri < g.W; ri++ {
			roi := projection.Tile{I: ri, J: rj}
			m := Matrix(backing[:g.Tiles():g.Tiles()])
			backing = backing[g.Tiles():]
			for j := 0; j < g.H; j++ {
				for i := 0; i < g.W; i++ {
					t := projection.Tile{I: i, J: j}
					m[g.Index(t)] = level(g.Distance(t, roi))
				}
			}
			f.mats[g.Index(roi)] = m
		}
	}
	actual, _ := familyCache.LoadOrStore(key, f)
	return actual.(*ModeFamily)
}

// Matrix returns the family's shared read-only matrix for ROI center roi.
// The call performs no allocation; callers must not mutate the result.
func (f *ModeFamily) Matrix(roi projection.Tile) Matrix {
	return f.mats[f.g.Index(roi)]
}

// SharedModeMatrix is the memoized equivalent of ModeMatrix: bit-identical
// values, but returning the process-wide shared read-only matrix instead
// of a fresh allocation. Hot paths that cannot hold a *ModeFamily should
// still prefer FamilyFor + Matrix to skip the cache lookup per call.
func SharedModeMatrix(g projection.Grid, roi projection.Tile, C float64) Matrix {
	return FamilyFor(g, C).Matrix(roi)
}
