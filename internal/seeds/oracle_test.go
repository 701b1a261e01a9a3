package seeds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The simulator's streams moved from math/rand's lagged-Fibonacci source
// and ziggurats to SplitMix and its own samplers. The old generator stays
// here as the oracle: each SplitMix variate must be indistinguishable in
// distribution from math/rand's, by a two-sample Kolmogorov–Smirnov test.
//
// With n = m samples per side the statistic D = sup|F₁ − F₂| exceeds
// c(α)·√(2/n) with probability α under the null; c(10⁻⁶) ≈ 2.63 (from
// α = 2·exp(−2c²)). Both sides are fixed-seed streams, so each test is a
// deterministic check whose bound sits far above the null's spread.

// ksTwoSample returns the two-sample Kolmogorov–Smirnov statistic of a and
// b, sorting both in place.
func ksTwoSample(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		d = math.Max(d, math.Abs(fa-fb))
	}
	return d
}

// ksBound is c(α)·√(2/n) at α = 10⁻⁶ for two samples of n each.
func ksBound(n int) float64 {
	return math.Sqrt(-0.5*math.Log(1e-6/2)) * math.Sqrt(2/float64(n))
}

func ksAgainstMathRand(t *testing.T, name string, n int, draw func(*SplitMix) float64, oracle func(*rand.Rand) float64) {
	t.Helper()
	s := NewSource(2024)
	r := rand.New(rand.NewSource(2024))
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = draw(s)
		b[i] = oracle(r)
	}
	d, bound := ksTwoSample(a, b), ksBound(n)
	t.Logf("%s: n = m = %d, D = %.5f, bound %.5f", name, n, d, bound)
	if d > bound {
		t.Errorf("%s: KS D = %.5f against math/rand exceeds %.5f", name, d, bound)
	}
}

// TestFloat64MatchesMathRand: 200 000 uniforms per side, D bound 0.0085.
func TestFloat64MatchesMathRand(t *testing.T) {
	ksAgainstMathRand(t, "Float64", 200_000,
		(*SplitMix).Float64, (*rand.Rand).Float64)
}

// TestNormFloat64MatchesMathRand: 1 000 000 normals per side, D bound
// 0.0038 — enough to see one wrong ziggurat constant, which bends every
// layer edge by a few parts per thousand.
func TestNormFloat64MatchesMathRand(t *testing.T) {
	ksAgainstMathRand(t, "NormFloat64", 1_000_000,
		(*SplitMix).NormFloat64, (*rand.Rand).NormFloat64)
}

// TestExpFloat64MatchesMathRand: 200 000 exponentials per side, D bound
// 0.0085.
func TestExpFloat64MatchesMathRand(t *testing.T) {
	ksAgainstMathRand(t, "ExpFloat64", 200_000,
		(*SplitMix).ExpFloat64, (*rand.Rand).ExpFloat64)
}

// TestBoundedDrawUniform holds the simulator's bounded-integer draw,
// int(Float64()·n), to uniformity by a χ² test over 2²⁰ draws per n. The
// bounds are the χ² quantiles at p = 10⁻⁶ for n−1 degrees of freedom
// (Wilson–Hilferty for n = 1024).
func TestBoundedDrawUniform(t *testing.T) {
	cases := []struct {
		n     int
		bound float64
	}{
		{2, 23.93},
		{3, 27.63},
		{4, 30.66},
		{1024, 1252.7},
	}
	const draws = 1 << 20
	s := NewSource(31)
	for _, tc := range cases {
		counts := make([]int, tc.n)
		for i := 0; i < draws; i++ {
			counts[int(s.Float64()*float64(tc.n))]++
		}
		want := float64(draws) / float64(tc.n)
		var chi2 float64
		for _, c := range counts {
			d := float64(c) - want
			chi2 += d * d / want
		}
		t.Logf("n = %d: χ² = %.2f, bound %.2f", tc.n, chi2, tc.bound)
		if chi2 > tc.bound {
			t.Errorf("n = %d: χ² = %.2f over %d draws exceeds %.2f", tc.n, chi2, draws, tc.bound)
		}
	}
}
