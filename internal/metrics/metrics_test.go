package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMOSForPSNRTable1(t *testing.T) {
	cases := []struct {
		psnr float64
		want MOS
	}{
		{40, Excellent}, {37.01, Excellent},
		{37, Good}, {35, Good}, {31.01, Good},
		{31, Fair}, {28, Fair}, {25.01, Fair},
		{25, Poor}, {22, Poor}, {20, Poor},
		{19.99, Bad}, {5, Bad},
	}
	for _, c := range cases {
		if got := MOSForPSNR(c.psnr); got != c.want {
			t.Errorf("MOSForPSNR(%v) = %v, want %v", c.psnr, got, c.want)
		}
	}
}

// MOS names, the MOS PDF (empty: all zero), the summary statistics,
// percentiles (monotone; NaN when empty) and the empirical CDF.
func TestSummaries(t *testing.T) {
	t.Run("MOSString", func(t *testing.T) {
		if Excellent.String() != "Excellent" || Bad.String() != "Bad" || MOS(42).String() != "MOS(42)" {
			t.Fatal("MOS names wrong")
		}
	})
	t.Run("MOSPDFSumsToOne", func(t *testing.T) {
		pdf := MOSPDF([]float64{40, 35, 28, 22, 10, 39})
		if sum := pdf[0] + pdf[1] + pdf[2] + pdf[3] + pdf[4]; math.Abs(sum-1) > 1e-12 || pdf[Excellent] != 2.0/6 || pdf[Bad] != 1.0/6 {
			t.Fatalf("pdf = %v", pdf)
		}
	})
	t.Run("Empty", func(t *testing.T) {
		if MOSPDF(nil) != [5]float64{} || Summarize(nil).N != 0 || CDF(nil) != nil {
			t.Fatal("empty PDF, summary or CDF not zero")
		}
	})
	t.Run("Summarize", func(t *testing.T) {
		s := Summarize([]float64{1, 2, 3, 4, 5})
		if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 || math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
			t.Fatalf("%+v", s)
		}
		s = Summarize([]float64{5, 1, 9, 3, 7, 2})
		if !(s.P10 <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P99) {
			t.Fatalf("percentiles not monotone: %+v", s)
		}
	})
	t.Run("Percentile", func(t *testing.T) {
		xs := []float64{10, 20, 30, 40}
		if Percentile(xs, 0) != 10 || Percentile(xs, 1) != 40 || Percentile(xs, 0.5) != 25 || !math.IsNaN(Percentile(nil, 0.5)) {
			t.Fatal("Percentile wrong")
		}
	})
	t.Run("CDF", func(t *testing.T) {
		if pts := CDF([]float64{3, 1, 2}); len(pts) != 3 || pts[0].X != 1 || math.Abs(pts[0].P-1.0/3) > 1e-12 || pts[2].X != 3 || pts[2].P != 1 {
			t.Fatalf("CDF %+v", pts)
		}
		xs := []float64{1, 2, 3, 4}
		if CDFAt(xs, 2.5) != 0.5 || CDFAt(xs, 0) != 0 || !math.IsNaN(CDFAt(nil, 1)) {
			t.Fatal("CDFAt wrong")
		}
	})
}

// The 2 s window std of 33 ms samples is zero on a constant series and
// large on one flipping between 1 and 9; a spike at t=0 stays in the
// window at 1 s and has left it by 5 s.
func TestWindowStd(t *testing.T) {
	var flat, osc []TimedSample
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * 33 * time.Millisecond
		flat = append(flat, TimedSample{At: at, V: 7})
		osc = append(osc, TimedSample{At: at, V: float64(1 + 8*(1-i%2))})
	}
	t.Run("ConstantIsZero", func(t *testing.T) {
		if sf := Summarize(WindowStd(flat, 2*time.Second)); sf.Max != 0 {
			t.Fatalf("window std of a constant series up to %v", sf.Max)
		}
	})
	t.Run("DetectsOscillation", func(t *testing.T) {
		if so := Summarize(WindowStd(osc, 2*time.Second)); so.Mean <= 1 {
			t.Fatalf("window std of an oscillating series has mean %v", so.Mean)
		}
	})
	t.Run("RespectsWindow", func(t *testing.T) {
		samples := []TimedSample{{At: 0, V: 100}}
		for i := 1; i <= 100; i++ {
			samples = append(samples, TimedSample{At: time.Duration(i) * 100 * time.Millisecond, V: 1})
		}
		if out := WindowStd(samples, 2*time.Second); out[10] == 0 || out[50] != 0 {
			t.Fatalf("window std at 1 s %v (want > 0), at 5 s %v (want 0)", out[10], out[50])
		}
	})
}

func TestRunningMatchesSummarize(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
		}
		for _, x := range clean {
			r.Add(x)
		}
		if len(clean) == 0 {
			return r.n == 0
		}
		s := Summarize(clean)
		scale := math.Max(1, math.Abs(s.Mean))
		return r.n == len(clean) && math.Abs(r.Mean()-s.Mean)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJainFairness(t *testing.T) {
	// Unified degenerate convention: the empty and the all-zero
	// allocation are the same physical situation (nobody served) and
	// must agree — both sit at the equal-allocation limit 1, so a cell
	// that drains to zero UEs during an outage scores the same as one
	// whose UEs are all equally starved.
	if got := JainFairness(nil); got != 1 {
		t.Fatalf("empty: got %g, want 1", got)
	}
	if got := JainFairness([]float64{}); got != 1 {
		t.Fatalf("empty non-nil: got %g, want 1", got)
	}
	if got := JainFairness([]float64{0, 0, 0}); got != 1 {
		t.Fatalf("all-zero: got %g, want 1", got)
	}
	if got, want := JainFairness(nil), JainFairness([]float64{0, 0}); got != want {
		t.Fatalf("empty (%g) and all-zero (%g) conventions diverge", got, want)
	}
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: got %g, want 1", got)
	}
	n := 8
	xs := make([]float64, n)
	xs[0] = 42
	if got, want := JainFairness(xs), 1/float64(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("monopolized: got %g, want %g", got, want)
	}
	// 2-user closed form: (a+b)² / (2(a²+b²)).
	a, b := 3.0, 1.0
	want := (a + b) * (a + b) / (2 * (a*a + b*b))
	if got := JainFairness([]float64{a, b}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("2-user: got %g, want %g", got, want)
	}
	// Fairness must not depend on allocation order or scale.
	if JainFairness([]float64{1, 2, 4}) != JainFairness([]float64{4, 1, 2}) {
		t.Fatal("order dependence")
	}
	if math.Abs(JainFairness([]float64{1, 2, 4})-JainFairness([]float64{10, 20, 40})) > 1e-12 {
		t.Fatal("scale dependence")
	}
}

// TestJainFromSumsMatchesSlice holds the sums form to JainFairness on the
// degenerate allocations and on random whole-byte allocations (multiples of
// 8 bits, as a modem row serves them) folded in a shuffled order: a caller
// that adds shares as they become known sums them in another order than the
// slice, and for such shares below 2^26 bits both sums are exact, so the two
// forms must agree bit for bit.
func TestJainFromSumsMatchesSlice(t *testing.T) {
	fold := func(xs []float64) float64 {
		var sum, sumSq float64
		for _, x := range xs {
			sum += x
			sumSq += x * x
		}
		return JainFromSums(len(xs), sum, sumSq)
	}
	for _, xs := range [][]float64{nil, {}, {0}, {0, 0, 0}} {
		if got, want := fold(xs), JainFairness(xs); got != want || got != 1 {
			t.Fatalf("%v: sums form %g, slice form %g, want 1", xs, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := range 2000 {
		xs := make([]float64, 1+rng.Intn(64))
		for i := range xs {
			if rng.Intn(8) > 0 { // some residencies serve nothing
				xs[i] = 8 * float64(rng.Intn(1<<23))
			}
		}
		want := JainFairness(xs)
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		if got := fold(xs); got != want {
			t.Fatalf("trial %d, %d shares: sums form %v in shuffled order, slice form %v", trial, len(xs), got, want)
		}
	}
}

// TestPercentileEdgeCases pins the boundary behaviour: empty input is NaN
// (there is no sample to report), a single sample answers every quantile,
// all-equal samples collapse to that value, and p outside [0,1] clamps to
// the extremes.
func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatalf("Percentile(nil) = %g, want NaN", Percentile(nil, 0.5))
	}
	one := []float64{7}
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := Percentile(one, p); got != 7 {
			t.Fatalf("single sample: Percentile(p=%g) = %g, want 7", p, got)
		}
	}
	eq := []float64{3, 3, 3, 3}
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := Percentile(eq, p); got != 3 {
			t.Fatalf("all-equal: Percentile(p=%g) = %g, want 3", p, got)
		}
	}
	s := []float64{1, 2, 3}
	if got := Percentile(s, -0.5); got != 1 {
		t.Fatalf("p<0 must clamp to min, got %g", got)
	}
	if got := Percentile(s, 1.5); got != 3 {
		t.Fatalf("p>1 must clamp to max, got %g", got)
	}
}

// TestSummarizeEdgeCases: the empty summary is all-zero (N included), a
// single sample has zero spread, and all-equal samples have zero std with
// every percentile at the value.
func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty Summarize = %+v, want zero", s)
	}
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Std != 0 || s.Min != 5 || s.Max != 5 || s.Median != 5 || s.P99 != 5 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
	s = Summarize([]float64{2, 2, 2, 2, 2})
	if s.N != 5 || s.Std != 0 || s.P10 != 2 || s.P90 != 2 || s.Min != 2 || s.Max != 2 {
		t.Fatalf("all-equal summary wrong: %+v", s)
	}
	// Summarize must not mutate its input.
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Summarize reordered its input: %v", in)
	}
}

// TestWindowStdEdgeCases: empty and single-sample inputs, and a window
// larger than the whole span (every prefix is the window).
func TestWindowStdEdgeCases(t *testing.T) {
	if got := WindowStd(nil, time.Second); len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
	one := []TimedSample{{At: 0, V: 4}}
	if got := WindowStd(one, time.Second); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single sample: %v", got)
	}
	// Window wider than the span: sample i sees samples [0, i]; the last
	// value must equal the full-population std.
	samples := []TimedSample{
		{At: 0, V: 1}, {At: time.Second, V: 2},
		{At: 2 * time.Second, V: 3}, {At: 3 * time.Second, V: 4},
	}
	got := WindowStd(samples, time.Hour)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != 0 {
		t.Fatalf("first window must be a single sample: %g", got[0])
	}
	want := Summarize([]float64{1, 2, 3, 4}).Std
	if math.Abs(got[3]-want) > 1e-12 {
		t.Fatalf("wide window: got %g, want full-population std %g", got[3], want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("prefix std of an increasing ramp must not shrink: %v", got)
		}
	}
}
