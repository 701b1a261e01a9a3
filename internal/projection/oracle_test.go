package projection

import (
	"math"
	"math/rand"
	"testing"
)

// The package's scalar oracles: every fast form is held bit for bit to the
// form it replaced, on one probe set (probes).

// probes are the edge values of the fast paths and of math.Mod — ±0, the
// ±360 bounds and their Nextafter neighbours, tiny, huge and subnormal
// magnitudes, NaN, ±Inf — then 20 000 seeded values: within one and three
// turns, at any scale, and any bit pattern.
func probes() []float64 {
	below360 := math.Nextafter(360, 0)
	vs := []float64{
		0, math.Copysign(0, -1), 360, -360, below360, -below360,
		math.Nextafter(360, 720), -math.Nextafter(360, 720),
		720, -720, 1e-20, -1e-20, 5e-324, -5e-324,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		180, -180, 359.5, -359.5, 0.5, -0.5,
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20000; k++ {
		switch k % 4 {
		case 0:
			vs = append(vs, (rng.Float64()*2-1)*360)
		case 1:
			vs = append(vs, (rng.Float64()*2-1)*1080)
		case 2:
			vs = append(vs, (rng.Float64()*2-1)*math.Ldexp(1, rng.Intn(60)-30))
		default:
			vs = append(vs, math.Float64frombits(rng.Uint64()))
		}
	}
	return vs
}

// same reports whether got is want to the bit, any two NaNs alike (only a
// NaN's payload may differ: math.Max returns the canonical NaN).
func same(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// refNormalizeYaw is NormalizeYaw as first written: every value through
// math.Mod. NormalizeYaw must return its bits for every input except the
// one the reference gets wrong — a tiny negative yaw for which y + 360
// rounds to 360, outside the documented range [0, 360) — where it returns
// +0; and ClampPitch must return math.Max/Min's, −0 included.
func refNormalizeYaw(yaw float64) float64 {
	y := math.Mod(yaw, 360)
	if y < 0 {
		y += 360
	}
	return y
}

func TestNormalizeYawMatchesModReference(t *testing.T) {
	fixed := 0
	for _, v := range probes() {
		got, want := NormalizeYaw(v), refNormalizeYaw(v)
		if want == 360 {
			fixed++
			want = 0
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeYaw(%v) = %v (%#x), reference %v (%#x)",
				v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) && !(got >= 0 && got < 360) {
			t.Fatalf("NormalizeYaw(%v) = %v outside [0, 360)", v, got)
		}
		if got, want := ClampPitch(v), math.Max(-90, math.Min(90, v)); !same(got, want) {
			t.Fatalf("ClampPitch(%v) = %v, reference %v", v, got, want)
		}
	}
	if fixed == 0 {
		t.Fatal("no probe reached the reference's 360 result")
	}
	// Half an ulp of 360 is 2^-45: the largest magnitude that still rounds.
	edge := -math.Ldexp(1, -45)
	for _, v := range []float64{-1e-20, -5e-324, -1e-14, edge} {
		if got := NormalizeYaw(v); got != 0 || math.Signbit(got) {
			t.Errorf("NormalizeYaw(%v) = %v, want +0", v, got)
		}
	}
	if got := NormalizeYaw(math.Nextafter(edge, -1)); got != math.Nextafter(360, 0) {
		t.Errorf("NormalizeYaw(%v) = %v, want Nextafter(360, 0)", math.Nextafter(edge, -1), got)
	}
}

// TestTileCosFromColMatchesMaxMinReference holds the clamp of the
// spherical cosine to the math.Max/Min form, on column cosines and viewer
// terms that push the sum past ±1, onto ±0, and to NaN.
func TestTileCosFromColMatchesMaxMinReference(t *testing.T) {
	ge := GeomFor(DefaultGrid)
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.0000001, -1.0000001, 3, -3,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for j := 0; j < DefaultGrid.H; j++ {
		for _, cc := range vals {
			for _, sb := range vals {
				for _, cb := range vals {
					got := ge.TileCosFromCol(j, cc, sb, cb)
					if want := math.Max(-1, math.Min(1, ge.sinPitch[j]*sb+ge.cosPitch[j]*cb*cc)); !same(got, want) {
						t.Fatalf("TileCosFromCol(%d, %v, %v, %v) = %v, reference %v", j, cc, sb, cb, got, want)
					}
				}
			}
		}
	}
}

// refVisibleTiles is the FoV box test as first written: every one of the
// W·H tile centres checked against the box, in row-major order.
func refVisibleTiles(g Grid, o Orientation, fov FoV) []Tile {
	o = o.Normalized()
	center := g.TileAt(o)
	var out []Tile
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			t := Tile{I: i, J: j}
			c := g.Center(t)
			dyaw := math.Abs(NormalizeYaw(c.Yaw - o.Yaw))
			if dyaw > 180 {
				dyaw = 360 - dyaw
			}
			if t == center || dyaw <= fov.H/2 && math.Abs(c.Pitch-o.Pitch) <= fov.V/2 {
				out = append(out, t)
			}
		}
	}
	return out
}

// TestVisibleTilesMatchesScanReference holds the separable test to the
// W·H scan — the same tiles in the same order — on grids up to 64 tiles a
// side (flags on the stack) and wider (flags allocated), orientations at
// the probes' yaws and pitches past both poles, and FoVs from empty to the
// whole sphere; on the default grid it must not allocate.
func TestVisibleTilesMatchesScanReference(t *testing.T) {
	yaws := probes()[:2000]
	pitches := []float64{90, -90, 89.999, -89.999, 0, math.Copysign(0, -1), 45, -67.5, 100, -120}
	fovs := []FoV{DefaultFoV, {H: 10, V: 10}, {H: 10, V: 180}, {H: 360, V: 10}, {H: 0, V: 0}, {H: 200, V: 120}, {H: 360, V: 180}}
	var scratch []Tile
	for _, g := range []Grid{DefaultGrid, {W: 5, H: 3}, {W: 64, H: 64}, {W: 72, H: 36}, {W: 7, H: 90}} {
		for k, yaw := range yaws {
			if math.IsNaN(yaw) || math.IsInf(yaw, 0) {
				continue
			}
			o := Orientation{Yaw: yaw, Pitch: pitches[k%len(pitches)]}
			fov := fovs[k%len(fovs)]
			want := refVisibleTiles(g, o, fov)
			scratch = g.AppendVisibleTiles(scratch, o, fov)
			if len(scratch) != len(want) {
				t.Fatalf("grid %v, %+v, FoV %v: %d tiles, reference %d", g, o, fov, len(scratch), len(want))
			}
			for i := range want {
				if scratch[i] != want[i] {
					t.Fatalf("grid %v, %+v, FoV %v: tile %d is %v, reference %v", g, o, fov, i, scratch[i], want[i])
				}
			}
		}
	}
	o := Orientation{Yaw: 123, Pitch: -20}
	if allocs := testing.AllocsPerRun(100, func() { scratch = DefaultGrid.AppendVisibleTiles(scratch, o, DefaultFoV) }); allocs != 0 {
		t.Fatalf("AppendVisibleTiles on the default grid allocates %v times", allocs)
	}
}

func BenchmarkNormalizeYaw(b *testing.B) {
	// The simulator's arguments: tile-centre minus gaze differences and
	// drifting yaws, all inside (−360, 360) but for a few wrapped sums.
	rng := rand.New(rand.NewSource(1))
	in := make([]float64, 1024)
	for i := range in {
		in[i] = (rng.Float64()*2 - 1) * 360
		if i%64 == 0 {
			in[i] += 360
		}
	}
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += NormalizeYaw(in[i&(len(in)-1)])
	}
	_ = s
}
