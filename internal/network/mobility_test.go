package network

import (
	"math"
	"testing"

	"poi360/internal/seeds"
)

// newTestRand gives mobility tests a local deterministic source.
func newTestRand(seed int64) *seeds.SplitMix { return seeds.NewSource(seed) }

// TestStepCellUniformOnEdges walks 30 000 steps from an edge cell with
// three neighbours and from a corner with two: each neighbour's share of
// the steps must lie within 1/n ± 0.02. Folding a draw over four slots
// onto n < 4 neighbours would give the first one ½ and the others ¼.
func TestStepCellUniformOnEdges(t *testing.T) {
	const cells, steps = 256, 30_000
	w := gridWidth(cells)
	for _, tc := range []struct{ from, n int }{{5, 3}, {0, 2}} {
		rng := newTestRand(int64(17 + tc.from))
		hits := map[int]int{}
		for k := 0; k < steps; k++ {
			hits[stepCell(tc.from, cells, w, rng)]++
		}
		if len(hits) != tc.n {
			t.Errorf("from %d: reached %d neighbours, want %d", tc.from, len(hits), tc.n)
		}
		want := 1 / float64(tc.n)
		for to, h := range hits {
			if share := float64(h) / steps; math.Abs(share-want) > 0.02 {
				t.Errorf("from %d: neighbour %d took %.3f of the steps, want %.3f ± 0.02", tc.from, to, share, want)
			}
		}
	}
}
