package seeds

import (
	"fmt"
	"testing"
)

// unique fails t when two of the named seeds collide.
func unique(t *testing.T, seeds map[string]int64) {
	t.Helper()
	seen := make(map[int64]string, len(seeds))
	for name, s := range seeds {
		if prev, ok := seen[s]; ok {
			t.Fatalf("%s and %s collide on %d", prev, name, s)
		}
		seen[s] = name
	}
}

// The seed packings are collision-free over their grids and sensitive to
// the base seed, and stable: Derive over 128×128 coordinates; distinct
// Stream tags, which also stay clear of the small-coordinate region of
// Derive where experiment grids live; and Grid over a city-scale (cell,
// ue, repeat) grid, whose seeds stay clear of the Derive region an
// experiment would use under the same base — the packings share a
// finalizer but not a coordinate space.
func TestSeedPackingsUnique(t *testing.T) {
	t.Run("Derive", func(t *testing.T) {
		derive := map[string]int64{}
		for lane := 0; lane < 128; lane++ {
			for step := 0; step < 128; step++ {
				derive[fmt.Sprint("Derive", lane, step)] = Derive(42, lane, step)
			}
		}
		unique(t, derive)
	})
	t.Run("Stream", func(t *testing.T) {
		tags := []string{"video", "headmotion", "lte", "path", "core", "rev", "cell", "ue"}
		streams := map[string]int64{}
		for lane := 0; lane < 64; lane++ {
			for step := 0; step < 64; step++ {
				streams[fmt.Sprint("Derive", lane, step)] = Derive(7, lane, step)
			}
		}
		for _, tag := range tags {
			streams[tag] = Stream(7, tag)
			if Stream(7, tag) != streams[tag] || Stream(8, tag) == streams[tag] {
				t.Fatalf("Stream(%q) is not stable or ignores the base seed", tag)
			}
		}
		unique(t, streams)
		// The old additive offsets made two bases one apart share entire
		// streams. Stream must not have that property.
		if Stream(10, "lte") == Stream(8, "video") || Stream(10, "lte") == Stream(11, "lte") {
			t.Fatal("neighbouring bases share component streams")
		}
	})
	t.Run("Grid", func(t *testing.T) {
		grid := map[string]int64{}
		for c := 0; c < 128; c++ {
			for u := 0; u < 64; u++ {
				for r := 0; r < 4; r++ {
					grid[fmt.Sprint("Grid", c, u, r)] = Grid(42, c, u, r)
				}
			}
		}
		for lane := 0; lane < 64; lane++ {
			for step := 0; step < 64; step++ {
				grid[fmt.Sprint("Derive", lane, step)] = Derive(42, lane, step)
			}
		}
		unique(t, grid)
		if Derive(1, 3, 4) == Derive(2, 3, 4) || Grid(1, 3, 4, 5) == Grid(2, 3, 4, 5) || Grid(1, 3, 4, 5) != Grid(1, 3, 4, 5) {
			t.Fatal("Derive or Grid ignores the base seed, or Grid is not stable")
		}
		// The additive (cell·1000 + ue) packing Grid replaced collided here.
		if Grid(42, 1, 0, 3) == Grid(42, 0, 1000, 3) {
			t.Fatal("Grid reproduces the additive collision")
		}
	})
}
