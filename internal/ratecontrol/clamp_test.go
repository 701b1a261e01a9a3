package ratecontrol

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sameFloat reports whether got and want are the same float64, counting
// any two NaNs as the same: only a NaN's payload may differ.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestClampsMatchMathForms holds the controllers' clamps to the math.Min /
// math.Max forms they replace: clamp (GCC's threshold and rate, FBCC's
// Eq. 7 rate) against math.Max(lo, math.Min(hi, x)), FBCC.VideoRate
// against math.Max(minVideoRate, r), and the builtin min of GCC's two
// rate caps against math.Min in the same argument order. The bounds are
// every constant a caller passes, the ones a caller computes (γ·recv,
// 1.5·recv + 20 kbit/s, an Eq. 7 floor above the cap) at their extremes,
// and seeded random ones; x sweeps each bound and its neighbours, ±0,
// ±Inf, NaN, subnormals and seeded random values of both signs.
func TestClampsMatchMathForms(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	neg0 := math.Copysign(0, -1)
	bounds := []float64{70, 600, GCCMinRate, GCCMaxRate, minRTPRate, maxRTPRate, minVideoRate,
		1.05 * GCCMaxRate, 2 * maxRTPRate, gccBeta * math.SmallestNonzeroFloat64,
		gccBeta * math.MaxFloat64, 20e3, -3, -1e300}
	for i := 0; i < 40; i++ {
		bounds = append(bounds, math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)*float64(1-2*rng.Intn(2)))
	}
	xs := []float64{0, neg0, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, b := range bounds {
		xs = append(xs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), -b)
	}
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(16))))
	}
	f, err := NewFBCC(DefaultFBCCConfig(100 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if got, want := f.VideoRate(0, x), math.Max(minVideoRate, x); !sameFloat(got, want) {
			t.Fatalf("VideoRate with rgcc %v = %v, math form %v", x, got, want)
		}
		// GCC's caps: γ·recv and 1.5·recv + 20e3 for recv in (0, +Inf].
		for _, b := range append(xs, math.Inf(1)) {
			if b <= 0 || math.IsNaN(b) {
				continue
			}
			if got, want := min(b, x), math.Min(b, x); !sameFloat(got, want) {
				t.Fatalf("min(%v, %v) = %v, math form %v", b, x, got, want)
			}
			if got, want := min(x, b), math.Min(x, b); !sameFloat(got, want) {
				t.Fatalf("min(%v, %v) = %v, math form %v", x, b, got, want)
			}
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				if got, want := clamp(x, lo, hi), math.Max(lo, math.Min(hi, x)); !sameFloat(got, want) {
					t.Fatalf("clamp(%v, %v, %v) = %v, math form %v", x, lo, hi, got, want)
				}
			}
		}
	}
}
