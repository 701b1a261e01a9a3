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

// cropKey identifies one memoized Conduit crop-mask family.
type cropKey struct {
	w, h, ring int
	nonROI     float64
}

var (
	familyCache sync.Map // familyKey → *ModeFamily
	cropCache   sync.Map // cropKey → *cropFamily
)

// ModeFamily is the memoized Eq. 1 matrix family of one (grid, C) pair:
// one shared read-only Matrix per possible ROI center. Obtain with
// FamilyFor; families are cached process-wide and safe for concurrent use
// once built (they are immutable after construction).
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
	f := buildFamily(g, C)
	// Concurrent first builds race benignly: both produce identical
	// immutable values and LoadOrStore keeps exactly one.
	actual, _ := familyCache.LoadOrStore(key, f)
	return actual.(*ModeFamily)
}

// buildFamily materializes every ROI center's matrix for (g, C). The level
// depends only on the clamped tile distance d = max(0, dx+dy−plateau), so
// the expensive part — one math.Pow per distinct d, the same expression
// ModeMatrix evaluates per tile — runs once into a level-by-distance row
// and the W·H matrices are filled by indexed lookup.
func buildFamily(g projection.Grid, C float64) *ModeFamily {
	if C <= 1 {
		panic(fmt.Sprintf("compress: mode constant C must exceed 1, got %g", C))
	}
	// Maximum clamped distance on the grid: the cyclic yaw distance peaks
	// at ⌊W/2⌋ and the pitch distance at H−1.
	maxD := g.W/2 + (g.H - 1) - ModePlateau
	if maxD < 0 {
		maxD = 0
	}
	byDist := make([]float64, maxD+1)
	for d := range byDist {
		byDist[d] = math.Min(LevelCap, math.Pow(C, float64(d)))
	}

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
					dx, dy := g.Distance(t, roi)
					d := dx + dy - ModePlateau
					if d < 0 {
						d = 0
					}
					m[g.Index(t)] = byDist[d]
				}
			}
			f.mats[g.Index(roi)] = m
		}
	}
	return f
}

// Matrix returns the shared read-only Eq. 1 matrix for ROI center roi.
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

// cropFamily memoizes Conduit's two-level crop masks: one shared matrix
// per ROI center for a (grid, ring, nonROI) triple.
type cropFamily struct {
	g    projection.Grid
	mats []Matrix
}

// cropFamilyFor returns the memoized crop-mask family, building on first
// use (same benign-race discipline as FamilyFor).
func cropFamilyFor(g projection.Grid, ring int, nonROI float64) *cropFamily {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	key := cropKey{w: g.W, h: g.H, ring: ring, nonROI: nonROI}
	if f, ok := cropCache.Load(key); ok {
		return f.(*cropFamily)
	}
	f := &cropFamily{g: g, mats: make([]Matrix, g.Tiles())}
	backing := make([]float64, g.Tiles()*g.Tiles())
	for rj := 0; rj < g.H; rj++ {
		for ri := 0; ri < g.W; ri++ {
			roi := projection.Tile{I: ri, J: rj}
			m := Matrix(backing[:g.Tiles():g.Tiles()])
			backing = backing[g.Tiles():]
			for j := 0; j < g.H; j++ {
				for i := 0; i < g.W; i++ {
					t := projection.Tile{I: i, J: j}
					dx, dy := g.Distance(t, roi)
					if dx <= ring && dy <= ring {
						m[g.Index(t)] = LMin
					} else {
						m[g.Index(t)] = nonROI
					}
				}
			}
			f.mats[g.Index(roi)] = m
		}
	}
	actual, _ := cropCache.LoadOrStore(key, f)
	return actual.(*cropFamily)
}

// matrix returns the shared read-only crop mask for ROI center roi.
func (f *cropFamily) matrix(roi projection.Tile) Matrix {
	return f.mats[f.g.Index(roi)]
}
