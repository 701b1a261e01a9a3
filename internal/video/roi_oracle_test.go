package video

import (
	"math"
	"math/rand"
	"testing"

	"poi360/internal/compress"
	"poi360/internal/projection"
)

// refROIPSNR is ROIPSNRScratch before its column cosines became lazy and
// its PSNR curve got a per-call memo: every column cosine filled up front,
// psnrForLevel evaluated for every visible tile, the clamps through
// math.Max/Min, yaws through math.Mod, and every visible row scanned in
// full. It reads only the geometry's public tables and the fovea kernel,
// so it stands apart from the code under test. ROIPSNRScratch must return
// its bits and its tile list.
//
// Its one departure from that code is refNormalizeYaw's last line: a
// tiny negative yaw maps to 0, not to 360 (outside [0, 360), which put the
// ROI centre in the last column and took the cosines at 2π instead of 0).
func refROIPSNR(ef *EncodedFrame, cfg Config, actual projection.Orientation, fov projection.FoV) (float64, []projection.Tile) {
	g := cfg.Grid
	ge := projection.GeomFor(g)
	vis := refVisibleTiles(ge, g, actual, fov)

	b := refNormalized(actual)
	by := b.Yaw * math.Pi / 180
	bp := b.Pitch * math.Pi / 180
	sinBp, cosBp := math.Sin(bp), math.Cos(bp)
	colCos := make([]float64, g.W)
	for i := range colCos {
		colCos[i] = math.Cos(ge.CenterYaw[i]*math.Pi/180 - by)
	}
	num, den := 0.0, 0.0
	for _, tl := range vis {
		p := ge.CenterPitch[tl.J] * math.Pi / 180
		c := math.Sin(p)*sinBp + math.Cos(p)*cosBp*colCos[tl.I]
		c = math.Max(-1, math.Min(1, c))
		w := ge.AreaW[tl.J] * fovea.eval(c)
		num += w * refPSNRForLevel(ef.LevelAt(g.Index(tl)))
		den += w
	}
	if den == 0 {
		return psnrMin, vis
	}
	p := num/den + ef.Jitter
	return math.Max(psnrMin, math.Min(psnrMax+3, p)), vis
}

func refPSNRForLevel(level float64) float64 {
	if level < 1 {
		level = 1
	}
	return math.Max(psnrMin, psnrMax-gamma*10*math.Log10(level))
}

func refNormalizeYaw(yaw float64) float64 {
	y := math.Mod(yaw, 360)
	if y < 0 {
		y += 360
	}
	if y == 360 {
		y = 0
	}
	return y
}

func refNormalized(o projection.Orientation) projection.Orientation {
	return projection.Orientation{Yaw: refNormalizeYaw(o.Yaw), Pitch: math.Max(-90, math.Min(90, o.Pitch))}
}

// refVisibleTiles is the separable FoV box test scanning every row.
func refVisibleTiles(ge *projection.Geometry, g projection.Grid, o projection.Orientation, fov projection.FoV) []projection.Tile {
	o = refNormalized(o)
	ci := int(o.Yaw / 360 * float64(g.W))
	if ci >= g.W {
		ci = g.W - 1
	}
	cj := int((90 - o.Pitch) / 180 * float64(g.H))
	if cj >= g.H {
		cj = g.H - 1
	}
	var out []projection.Tile
	for j := 0; j < g.H; j++ {
		rv := math.Abs(ge.CenterPitch[j]-o.Pitch) <= fov.V/2
		for i := 0; i < g.W; i++ {
			dyaw := math.Abs(refNormalizeYaw(ge.CenterYaw[i] - o.Yaw))
			if dyaw > 180 {
				dyaw = 360 - dyaw
			}
			if (rv && dyaw <= fov.H/2) || (i == ci && j == cj) {
				out = append(out, projection.Tile{I: i, J: j})
			}
		}
	}
	return out
}

// TestROIPSNRScratchMatchesReference sweeps seeded orientations, FoVs,
// matrices, scales and jitters through ROIPSNRScratch — reusing one scratch
// and one frame across consecutive calls, as the viewer does — and requires
// the reference's bits and tile list.
func TestROIPSNRScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	neg0 := math.Copysign(0, -1)
	yaws := []float64{
		0, neg0, 360, -360, math.Nextafter(360, 0), -1e-20, 1e-12, -1e-12,
		359.999999, 0.000001, 15, 29.999999, 30, -45, -359.5, 365, 719.9, -1000, 1e6,
	}
	pitches := []float64{90, -90, 89.999, -89.999, 0, neg0, 45, -67.5, 100, -120}
	fovs := []projection.FoV{
		projection.DefaultFoV, {H: 10, V: 10}, {H: 10, V: 180}, {H: 360, V: 10},
		{H: 0, V: 0}, {H: 200, V: 120}, {H: 360, V: 180},
	}
	for _, g := range []projection.Grid{projection.DefaultGrid, {W: 72, H: 36}, {W: 5, H: 3}} {
		cfg := DefaultConfig()
		cfg.Grid = g
		matrices := roiOracleMatrices(g, rng)
		var scratch []projection.Tile
		calls := 0
		for mi, m := range matrices {
			for _, scale := range []float64{1, 1.37, 12} {
				ef := EncodedFrame{Spatial: m, Scale: scale, Jitter: rng.NormFloat64() * 3}
				if mi%5 == 4 {
					ef.Jitter = 40 // past psnrMax+3
				}
				for k := 0; k < 40; k++ {
					var o projection.Orientation
					switch k % 3 {
					case 0:
						o = projection.Orientation{Yaw: yaws[rng.Intn(len(yaws))], Pitch: pitches[rng.Intn(len(pitches))]}
					case 1:
						o = projection.Orientation{Yaw: rng.Float64() * 360, Pitch: -90 + rng.Float64()*180}
					default:
						o = projection.Orientation{Yaw: (rng.Float64()*2 - 1) * 1080, Pitch: pitches[rng.Intn(len(pitches))]}
					}
					fov := fovs[rng.Intn(len(fovs))]
					var got float64
					got, scratch = ef.ROIPSNRScratch(cfg, o, fov, scratch)
					want, wantVis := refROIPSNR(&ef, cfg, o, fov)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("grid %v matrix %d scale %v %+v fov %+v: ROIPSNRScratch = %v, reference %v (Δ=%g)",
							g, mi, scale, o, fov, got, want, got-want)
					}
					if len(scratch) != len(wantVis) {
						t.Fatalf("grid %v %+v fov %+v: %d visible tiles, reference %d", g, o, fov, len(scratch), len(wantVis))
					}
					for i := range wantVis {
						if scratch[i] != wantVis[i] {
							t.Fatalf("grid %v %+v fov %+v: visible tile %d = %v, reference %v", g, o, fov, i, scratch[i], wantVis[i])
						}
					}
					calls++
				}
			}
		}
		if calls == 0 {
			t.Fatalf("grid %v: no calls", g)
		}
	}
}

// roiOracleMatrices returns the level maps the sweep runs: the real Eq. 1
// matrices of every mode at random ROIs, the flat map, and maps with more
// distinct levels than ROIPSNRScratch memoizes (levels below 1 included).
func roiOracleMatrices(g projection.Grid, rng *rand.Rand) [][]float64 {
	var ms [][]float64
	for _, c := range compress.DefaultModeCs() {
		roi := projection.Tile{I: rng.Intn(g.W), J: rng.Intn(g.H)}
		ms = append(ms, compress.SharedModeMatrix(g, roi, c))
	}
	flat := make([]float64, g.Tiles())
	for i := range flat {
		flat[i] = 1
	}
	ms = append(ms, flat)
	for k := 0; k < 4; k++ {
		m := make([]float64, g.Tiles())
		for i := range m {
			m[i] = 0.3 + rng.Float64()*30
		}
		ms = append(ms, m)
	}
	// Repeated levels in an order that fills the memo before the repeats.
	cyc := make([]float64, g.Tiles())
	for i := range cyc {
		cyc[i] = float64(1 + i%11)
	}
	return append(ms, cyc)
}

// TestPSNRForLevelMatchesMaxReference holds psnrForLevel's comparison floor
// to math.Max on the curve's edges. A NaN stays NaN in both; only its
// payload may differ.
func TestPSNRForLevelMatchesMaxReference(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	levels := []float64{0, neg0, 0.5, 1, math.Nextafter(1, 2), 1.37, 10, 12, 100,
		math.Pow(10, (psnrMax-psnrMin)/(gamma*10)), 1e9, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -5}
	for _, l := range levels {
		got, want := psnrForLevel(l), refPSNRForLevel(l)
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("psnrForLevel(%v) = %v, reference %v", l, got, want)
		}
	}
}

// TestROIPSNRClampMatchesMathForm sweeps a frame's jitter so ROIPSNRScratch's
// last line sees each bound of its clamp and its neighbours, ±0, ±Inf, NaN
// and seeded random values, and holds it to the math.Max / math.Min form of
// refROIPSNR. A NaN stays NaN in both; only its payload may differ.
func TestROIPSNRClampMatchesMathForm(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cfg := DefaultConfig()
	ef := EncodedFrame{Spatial: roiOracleMatrices(cfg.Grid, rng)[0], Scale: 1.37}
	o := projection.Orientation{Yaw: 15, Pitch: 10}
	base, _ := ef.ROIPSNRScratch(cfg, o, projection.DefaultFoV, nil)
	if base <= psnrMin || base >= psnrMax+3 {
		t.Fatalf("base PSNR %v is clamped; the fixture no longer reaches both bounds", base)
	}
	neg0 := math.Copysign(0, -1)
	jitters := []float64{0, neg0, -base, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	for _, bound := range []float64{psnrMin, psnrMax + 3} {
		j := bound - base
		jitters = append(jitters, j, math.Nextafter(j, math.Inf(1)), math.Nextafter(j, math.Inf(-1)))
	}
	for i := 0; i < 100; i++ {
		jitters = append(jitters, rng.NormFloat64()*40)
	}
	for _, j := range jitters {
		ef.Jitter = j
		got, _ := ef.ROIPSNRScratch(cfg, o, projection.DefaultFoV, nil)
		want, _ := refROIPSNR(&ef, cfg, o, projection.DefaultFoV)
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jitter %v: ROIPSNRScratch = %v, reference %v", j, got, want)
		}
	}
}
