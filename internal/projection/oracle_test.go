package projection

import (
	"math"
	"math/rand"
	"testing"
)

// refNormalizeYaw is NormalizeYaw as first written: every value through
// math.Mod. NormalizeYaw must return its bits for every input except the
// one the reference gets wrong — a tiny negative yaw for which y + 360
// rounds to 360, outside the documented range [0, 360).
func refNormalizeYaw(yaw float64) float64 {
	y := math.Mod(yaw, 360)
	if y < 0 {
		y += 360
	}
	return y
}

// yawProbes are the edge values of the fast path and of math.Mod.
func yawProbes() []float64 {
	neg0 := math.Copysign(0, -1)
	below360 := math.Nextafter(360, 0)
	vs := []float64{
		0, neg0, 360, -360, below360, -below360,
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

func TestNormalizeYawMatchesModReference(t *testing.T) {
	fixed := 0
	for _, v := range yawProbes() {
		got, want := NormalizeYaw(v), refNormalizeYaw(v)
		if want == 360 {
			fixed++
			if math.Float64bits(got) != 0 {
				t.Fatalf("NormalizeYaw(%v) = %v, want +0 (the reference's 360)", v, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeYaw(%v) = %v (%#x), reference %v (%#x)",
				v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) && !(got >= 0 && got < 360) {
			t.Fatalf("NormalizeYaw(%v) = %v outside [0, 360)", v, got)
		}
	}
	if fixed == 0 {
		t.Fatal("no probe reached the reference's 360 result")
	}
}

func TestNormalizeYawTinyNegativeIsZero(t *testing.T) {
	for _, v := range []float64{-1e-20, -5e-324, -1e-14} {
		if got := NormalizeYaw(v); got != 0 || math.Signbit(got) {
			t.Errorf("NormalizeYaw(%v) = %v, want +0", v, got)
		}
	}
	// Half an ulp of 360 is 2^-45: the largest magnitude that still rounds.
	edge := -math.Ldexp(1, -45)
	if got := NormalizeYaw(edge); got != 0 {
		t.Errorf("NormalizeYaw(%v) = %v, want 0", edge, got)
	}
	if got := NormalizeYaw(math.Nextafter(edge, -1)); got != math.Nextafter(360, 0) {
		t.Errorf("NormalizeYaw(%v) = %v, want Nextafter(360, 0)", math.Nextafter(edge, -1), got)
	}
}

// TestClampPitchMatchesMaxMinReference holds the comparison clamp to the
// math.Max/Min form bit for bit, −0 included. A NaN stays NaN in both;
// only its payload may differ (math.Max returns the canonical NaN).
func TestClampPitchMatchesMaxMinReference(t *testing.T) {
	for _, v := range yawProbes() {
		got, want := ClampPitch(v), math.Max(-90, math.Min(90, v))
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ClampPitch(%v) = %v, reference %v", v, got, want)
		}
	}
}

// TestTileCosFromColMatchesMaxMinReference does the same for the clamp of
// the spherical cosine, on column cosines and viewer terms that push the
// sum past ±1, onto ±0, and to NaN.
func TestTileCosFromColMatchesMaxMinReference(t *testing.T) {
	ge := GeomFor(DefaultGrid)
	neg0 := math.Copysign(0, -1)
	vals := []float64{0, neg0, 1, -1, 0.5, -0.5, 1.0000001, -1.0000001, 3, -3,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for j := 0; j < DefaultGrid.H; j++ {
		for _, cc := range vals {
			for _, sb := range vals {
				for _, cb := range vals {
					got := ge.TileCosFromCol(j, cc, sb, cb)
					want := math.Max(-1, math.Min(1, ge.sinPitch[j]*sb+ge.cosPitch[j]*cb*cc))
					if math.IsNaN(got) && math.IsNaN(want) {
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("TileCosFromCol(%d, %v, %v, %v) = %v, reference %v", j, cc, sb, cb, got, want)
					}
				}
			}
		}
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
