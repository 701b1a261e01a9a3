package network

import (
	"time"

	"poi360/internal/seeds"
)

// The city lays its cells on a ⌈√C⌉-wide row-major grid; cell c sits at
// (c mod W, c div W). The last row may be ragged — slots ≥ Cells do not
// exist and the walk never enters them.

// gridWidth returns the grid width W = ⌈√cells⌉.
func gridWidth(cells int) int {
	w := 1
	for w*w < cells {
		w++
	}
	return w
}

// stepCell takes one grid-walk step from cur: a uniform draw over the
// existing 4-neighbors (north/south/east/west, no torus wraparound). With
// no valid neighbor (a 1-cell city) the UE stays put. Exactly one rng
// draw per call keeps the mobility stream's consumption independent of
// the UE's position, so traces replay identically across code paths.
func stepCell(cur, cells, w int, rng *seeds.SplitMix) int {
	x, y := cur%w, cur/w
	var opts [4]int
	n := 0
	add := func(nx, ny int) {
		c := ny*w + nx
		if nx >= 0 && ny >= 0 && nx < w && c < cells {
			opts[n] = c
			n++
		}
	}
	add(x-1, y)
	add(x+1, y)
	add(x, y-1)
	add(x, y+1)
	k := int(rng.Float64() * float64(n))
	if n == 0 {
		return cur
	}
	return opts[k]
}

// dwell draws an exponential cell dwell time with the given mean,
// clamped below to one epoch so a UE cannot schedule two moves inside
// the same boundary interval.
func dwell(rng *seeds.SplitMix, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < epoch {
		d = epoch
	}
	return d
}
