package compress

import (
	"fmt"
	"math"

	"poi360/internal/projection"
)

// ModeMatrix builds the compression matrix of Eq. 1 for ROI center roi:
// l(i,j) = C^max(0, dx+dy−plateau), where dx is the cyclic column distance
// (the panorama wraps in yaw) and dy the row distance. C > 1 controls
// aggressiveness: larger C compresses distant tiles harder. Levels are
// bounded by LevelCap.
//
// ModeMatrix is the direct-computation oracle the tests hold the memoized
// views (FamilyFor / SharedModeMatrix in cache.go) to, bit for bit: it
// allocates a fresh matrix on every call, so production code never uses it.
func ModeMatrix(g projection.Grid, roi projection.Tile, C float64) Matrix {
	if C <= 1 {
		panic(fmt.Sprintf("compress: mode constant C must exceed 1, got %g", C))
	}
	m := make(Matrix, g.Tiles())
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			t := projection.Tile{I: i, J: j}
			dx, dy := g.Distance(t, roi)
			d := dx + dy - ModePlateau
			if d < 0 {
				d = 0
			}
			m[g.Index(t)] = math.Min(LevelCap, math.Pow(C, float64(d)))
		}
	}
	return m
}

// CompressedFraction returns the ratio of frame bits kept by the matrix
// when tile raw bits are proportional to weights (pass nil for uniform).
func (m Matrix) CompressedFraction(weights []float64) float64 {
	var kept, total float64
	for idx, l := range m {
		w := 1.0
		if weights != nil {
			w = weights[idx]
		}
		kept += w / l
		total += w
	}
	if total == 0 {
		return 0
	}
	return kept / total
}
