package video

import "math"

// The foveation weight of ROI-PSNR is a Gaussian in *angular distance*:
// w(d) = exp(−d²/2σ²) with d = acos(c)·180/π degrees, where c is the
// spherical cosine between the viewer orientation and the tile center.
// Evaluated literally that is one Acos plus one Exp per visible tile per
// displayed frame — the two costliest rows of a session profile after the
// LTE scheduler. This file replaces the pair with a fixed-grid kernel in
// the cosine domain:
//
//	G(c) = exp(−k·acos(c)²),  k = (180/π)²/(2σ²)
//
// G is analytic on the whole closed interval [−1, 1] even though acos
// itself has a square-root singularity at c = ±1: acos(c)² = 2(1−c) +
// (1−c)²/3 + … is a convergent power series at c = 1, so composing with
// exp keeps every derivative finite. That smoothness is what makes a
// cubic Hermite interpolant on a uniform grid converge at O(h⁴): with
// 1024 segments over [−0.5, 1] the interpolation error is bounded by
// h⁴/384·max|G⁗| ≈ 1e−8 for σ ≥ 8 (the property test pins 1e−7 for
// σ from 8 to 45 around the model's 12). Below c = −0.5 — angular distance beyond
// 120°, far outside any FoV — the kernel falls back to the exact
// expression, so the approximation domain is exactly the precomputed one.
//
// The kernel is deterministic (tables are a pure function of σ) but NOT
// bit-identical to the Acos/Exp reference; swapping it into ROI-PSNR was a
// declared trajectory change (DESIGN.md §18).

const (
	// foveaCMin is the lower edge of the interpolated domain: cos(120°).
	foveaCMin = -0.5
	// foveaSegments is the uniform segment count over [foveaCMin, 1].
	foveaSegments = 1024
)

// foveaKernel interpolates G(c) with a C¹ cubic Hermite spline: per knot
// the exact value and exact derivative, so each segment reproduces both
// endpoints and endpoint slopes of the true kernel.
type foveaKernel struct {
	k float64 // (180/π)²/(2σ²)
	// val[i], der[i] are G and dG/dc at knot c_i = foveaCMin + i·step.
	val  [foveaSegments + 1]float64
	der  [foveaSegments + 1]float64
	step float64 // segment width in c
	inv  float64 // 1/step
}

// foveaRefDeriv is dG/dc = 2k·acos(c)/√(1−c²) · G(c). The ratio
// acos(c)/√(1−c²) → 1 as c → 1, so the limit value at the endpoint is
// 2k·G(1) = 2k; at c = −1 the true derivative diverges, but that endpoint
// lies outside the interpolated domain.
func foveaRefDeriv(c, k float64) float64 {
	if c >= 1 {
		return 2 * k
	}
	a := math.Acos(c)
	g := math.Exp(-k * a * a)
	return 2 * k * a / math.Sqrt(1-c*c) * g
}

func newFoveaKernel(sigma float64) *foveaKernel {
	s := 180 / math.Pi
	fk := &foveaKernel{k: s * s / (2 * sigma * sigma)}
	fk.step = (1 - foveaCMin) / foveaSegments
	fk.inv = 1 / fk.step
	for i := 0; i <= foveaSegments; i++ {
		c := foveaCMin + float64(i)*fk.step
		if i == foveaSegments {
			c = 1 // land exactly on the endpoint despite rounding
		}
		a := math.Acos(math.Min(1, c))
		fk.val[i] = math.Exp(-fk.k * a * a)
		fk.der[i] = foveaRefDeriv(c, fk.k)
	}
	return fk
}

// eval returns the kernel weight at spherical cosine c ∈ [−1, 1].
func (fk *foveaKernel) eval(c float64) float64 {
	if c >= 1 {
		return 1
	}
	if c < foveaCMin {
		// Beyond the interpolated domain (d > 120°): exact tail. The
		// weight here is < 1e−21 at the model's σ, but falling
		// back keeps the kernel well-defined over the full sphere.
		a := math.Acos(math.Max(-1, c))
		return math.Exp(-fk.k * a * a)
	}
	u := (c - foveaCMin) * fk.inv
	i := int(u)
	if i >= foveaSegments {
		i = foveaSegments - 1
	}
	t := u - float64(i)
	// Cubic Hermite basis on [0,1], derivative terms scaled by the width.
	y0, y1 := fk.val[i], fk.val[i+1]
	m0, m1 := fk.der[i]*fk.step, fk.der[i+1]*fk.step
	t2 := t * t
	t3 := t2 * t
	return y0*(2*t3-3*t2+1) + m0*(t3-2*t2+t) + y1*(3*t2-2*t3) + m1*(t3-t2)
}

// fovea is the kernel ROI-PSNR weighs visible tiles with: σ is the
// model's one foveaSigma, so the tables are built once and shared
// read-only by every session, as projection.GeomFor shares its geometry.
var fovea = newFoveaKernel(foveaSigma)
