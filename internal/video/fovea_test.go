package video

import (
	"math"
	"math/rand"
	"testing"

	"poi360/internal/compress"
	"poi360/internal/projection"
)

// TestFoveaKernelMatchesReference pins the fast kernel against the
// Acos/Exp reference over a dense cosine grid, for the model's σ and the
// regimes around it (narrow fovea through FoV-wide). The bound is the kernel's
// documented contract: the cubic Hermite interpolant on 1024 segments
// stays within 1e−7 absolute of the reference for σ ≥ 8 (the analysis in
// fovea.go gives ≈1e−8; the order of magnitude of slack absorbs rounding
// in the table build). Below the interpolated domain (c < −0.5) the
// kernel evaluates the exact expression, so the error there is pure
// floating-point reassociation — far below the same bound.
func TestFoveaKernelMatchesReference(t *testing.T) {
	for _, sigma := range []float64{8, 12, 25, 45} {
		fk := newFoveaKernel(sigma)
		worst := 0.0
		// 4e5 points cover [−1, 1] about 200× denser than the knot grid,
		// so segment interiors — where Hermite error peaks — are sampled.
		const n = 400_000
		for i := 0; i <= n; i++ {
			c := -1 + 2*float64(i)/n
			got := fk.eval(c)
			want := foveaRef(c, sigma)
			if err := math.Abs(got - want); err > worst {
				worst = err
			}
		}
		if worst > 1e-7 {
			t.Errorf("sigma=%g: worst kernel error %.3g exceeds 1e-7", sigma, worst)
		}
	}
}

// TestFoveaKernelEndpoints pins the exact values the kernel must hit: the
// gaze center weighs exactly 1, and the interpolant reproduces its knots
// (a Hermite spline interpolates, it does not smooth).
func TestFoveaKernelEndpoints(t *testing.T) {
	fk := fovea
	if got := fk.eval(1); got != 1 {
		t.Errorf("eval(1) = %v, want exactly 1", got)
	}
	if got := fk.eval(2); got != 1 { // clamped over-domain input
		t.Errorf("eval(2) = %v, want exactly 1", got)
	}
	for i := 0; i <= foveaSegments; i += 37 {
		c := foveaCMin + float64(i)*fk.step
		if i == foveaSegments {
			c = 1
		}
		got := fk.eval(c)
		// At a knot the spline returns the stored value up to the basis
		// arithmetic (t=0 ⇒ the y0 term alone, exactly).
		if math.Abs(got-fk.val[i]) > 1e-15 {
			t.Errorf("knot %d: eval=%v table=%v", i, got, fk.val[i])
		}
	}
}

// TestFoveaKernelMonotone: the weight must decrease as the gaze moves
// away (c decreasing from 1) across the interpolated domain — a spline
// overshoot that broke monotonicity would misorder tile weights.
func TestFoveaKernelMonotone(t *testing.T) {
	fk := fovea
	prev := fk.eval(1)
	for i := 1; i <= 10_000; i++ {
		c := 1 - 1.5*float64(i)/10_000
		w := fk.eval(c)
		if w > prev+1e-12 {
			t.Fatalf("weight increased away from gaze at c=%v: %v > %v", c, w, prev)
		}
		prev = w
	}
}

// TestROIPSNRMatchesScalarReference compares the full ROI-PSNR path —
// kernel, column-cos hoist and all — against a scalar reimplementation
// of the original per-tile Acos/Exp computation, over random orientations
// and compression matrices. The documented end-to-end bound is 1e−5 dB:
// weight errors ≤1e−7 enter both numerator and denominator of a convex
// combination of per-tile PSNRs (spread ≤ ~35 dB), so the quotient moves
// by at most ~weight-error × spread ÷ total-weight.
func TestROIPSNRMatchesScalarReference(t *testing.T) {
	cfg := DefaultConfig()
	g := cfg.Grid
	ge := projection.GeomFor(g)
	rng := rand.New(rand.NewSource(7))
	levels := make([]float64, g.Tiles())
	for trial := 0; trial < 200; trial++ {
		for i := range levels {
			levels[i] = 1 + rng.Float64()*40
		}
		ef := EncodedFrame{Spatial: levels, Scale: 1 + rng.Float64()*3}
		actual := projection.Orientation{
			Yaw:   rng.Float64() * 360,
			Pitch: -90 + rng.Float64()*180,
		}
		got := ef.ROIPSNR(cfg, actual, projection.DefaultFoV)

		// Scalar reference: the pre-kernel computation, with the tile-center
		// distance taken by the general AngularDistance (which the geometry
		// tables reproduce bit for bit).
		vis := g.VisibleTiles(actual, projection.DefaultFoV)
		twoSigmaSq := 2.0 * foveaSigma * foveaSigma
		num, den := 0.0, 0.0
		for _, tl := range vis {
			d := projection.AngularDistance(g.Center(tl), actual)
			w := ge.AreaW[tl.J] * math.Exp(-d*d/twoSigmaSq)
			num += w * psnrForLevel(ef.LevelAt(g.Index(tl)))
			den += w
		}
		want := math.Max(psnrMin, math.Min(psnrMax+3, num/den+ef.Jitter))

		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("trial %d (yaw=%.1f pitch=%.1f): ROIPSNR=%v reference=%v (Δ=%g)",
				trial, actual.Yaw, actual.Pitch, got, want, got-want)
		}
	}
}

// BenchmarkROIPSNR measures the viewer's per-frame quality path on the
// traffic it sees: real Eq. 1 matrices of every mode, an encoder scale
// above 1, and a gaze that has moved a little since the sender chose the
// matrix's ROI.
func BenchmarkROIPSNR(b *testing.B) {
	cfg := DefaultConfig()
	g := cfg.Grid
	cs := compress.DefaultModeCs()
	const ring = 64
	var frames [ring]EncodedFrame
	var gaze [ring]projection.Orientation
	for k := range frames {
		gaze[k] = projection.Orientation{Yaw: float64(k) * 5.7, Pitch: 25 * math.Sin(float64(k)/5)}
		stale := projection.Orientation{Yaw: gaze[k].Yaw - 12, Pitch: gaze[k].Pitch - 4}
		frames[k] = EncodedFrame{
			Spatial: compress.SharedModeMatrix(g, g.TileAt(stale), cs[k%len(cs)]),
			Scale:   1.2 + 0.15*float64(k%4),
			Jitter:  0.3 * float64(k%7-3),
		}
	}
	// The viewer keeps its scratch and the shared geometry across frames:
	// warm both before timing.
	_, scratch := frames[0].ROIPSNRScratch(cfg, gaze[0], projection.DefaultFoV, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p float64
		p, scratch = frames[i%ring].ROIPSNRScratch(cfg, gaze[i%ring], projection.DefaultFoV, scratch)
		_ = p
	}
}

// foveaRef is the reference weight: the literal Acos/Exp expression the
// kernel approximates (and ROIPSNRScratch previously inlined). The
// property test compares the kernel against this on a dense grid.
func foveaRef(c, sigma float64) float64 {
	c = math.Max(-1, math.Min(1, c))
	d := math.Acos(c) * 180 / math.Pi
	return math.Exp(-d * d / (2 * sigma * sigma))
}
