package video

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"poi360/internal/projection"
)

// The default config validates, a zero FPS or grid does not, and
// NewSource panics on an invalid one; at 25 fps a frame lasts 40 ms.
func TestConfig(t *testing.T) {
	t.Run("Validate", func(t *testing.T) {
		if err := DefaultConfig().Validate(); err != nil {
			t.Fatal(err)
		}
		for i, m := range []func(*Config){
			func(c *Config) { c.FPS = 0 },
			func(c *Config) { c.Grid = projection.Grid{} },
		} {
			c := DefaultConfig()
			if m(&c); c.Validate() == nil {
				t.Errorf("mutation %d validated", i)
			}
		}
	})
	t.Run("FrameInterval", func(t *testing.T) {
		c := DefaultConfig()
		if c.FPS = 25; c.FrameInterval() != 40*time.Millisecond {
			t.Fatalf("FrameInterval = %v, want 40ms", c.FrameInterval())
		}
	})
	t.Run("NewSourcePanicsOnInvalid", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("NewSource accepted invalid config")
			}
		}()
		c := DefaultConfig()
		c.FPS = -1
		NewSource(c)
	})
}

// A source numbers its frames, each carrying the raw rate's share in
// positive per-tile bits, and two sources of one config agree bit for bit.
func TestSource(t *testing.T) {
	cfg := DefaultConfig()
	a, b := NewSource(cfg), NewSource(cfg)
	want := RawBitsPerSec / float64(cfg.FPS)
	for i := 0; i < 10; i++ {
		fa, fb := a.NextFrame(time.Duration(i)*33*time.Millisecond), b.NextFrame(time.Duration(i)*33*time.Millisecond)
		if fa.Seq != i || math.Abs(fa.RawBits()-want)/want > 1e-9 || len(fa.TileBits) != cfg.Grid.Tiles() || fa.Jitter != fb.Jitter {
			t.Fatalf("frame %d: Seq %d, raw bits %v (want %v), %d tiles, jitter %v vs %v", i, fa.Seq, fa.RawBits(), want, len(fa.TileBits), fa.Jitter, fb.Jitter)
		}
		for idx := range fa.TileBits {
			if fa.TileBits[idx] <= 0 || fa.TileBits[idx] != fb.TileBits[idx] {
				t.Fatalf("frame %d tile %d: %v vs %v bits", i, idx, fa.TileBits[idx], fb.TileBits[idx])
			}
		}
	}
}

func TestPSNRForLevel(t *testing.T) {
	if got := psnrForLevel(1); got != psnrMax {
		t.Fatalf("PSNR(1) = %v, want %v", got, psnrMax)
	}
	if got := psnrForLevel(0.5); got != psnrMax {
		t.Fatalf("PSNR(<1) = %v, want clamp to max", got)
	}
	// Level 10 costs gamma*10 dB.
	want := psnrMax - gamma*10
	if got := psnrForLevel(10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PSNR(10) = %v, want %v", got, want)
	}
	// Very deep compression clamps to floor.
	if got := psnrForLevel(1e9); got != psnrMin {
		t.Fatalf("PSNR(1e9) = %v, want floor %v", got, psnrMin)
	}
}

func TestPSNRMonotoneNonIncreasing(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		la, lb := math.Abs(a)+1, math.Abs(b)+1
		if la > lb {
			la, lb = lb, la
		}
		return psnrForLevel(la) >= psnrForLevel(lb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func uniformLevels(g projection.Grid, l float64) []float64 {
	out := make([]float64, g.Tiles())
	for i := range out {
		out[i] = l
	}
	return out
}

func TestEncodeNoBudgetKeepsSpatialSize(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	ef := Encode(&f, uniformLevels(cfg.Grid, 2), 0, projection.Tile{}, 1, 0)
	if math.Abs(ef.Bits-f.RawBits()/2)/f.RawBits() > 1e-9 {
		t.Fatalf("uniform level 2 should halve bits: %v vs %v", ef.Bits, f.RawBits()/2)
	}
	if ef.Scale != 1 {
		t.Fatalf("scale = %v, want 1", ef.Scale)
	}
}

func TestEncodeBudgetScalesDown(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	budget := f.RawBits() / 10
	ef := Encode(&f, uniformLevels(cfg.Grid, 1), budget, projection.Tile{}, 1, 0)
	if math.Abs(ef.Bits-budget)/budget > 1e-9 {
		t.Fatalf("encoded bits %v, want budget %v", ef.Bits, budget)
	}
	if math.Abs(ef.Scale-10) > 1e-9 {
		t.Fatalf("scale = %v, want 10", ef.Scale)
	}
	for _, l := range ef.EffectiveLevels() {
		if math.Abs(l-10) > 1e-9 {
			t.Fatalf("effective level %v, want 10", l)
		}
	}
}

func TestEncodeBudgetLooseNoScale(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	ef := Encode(&f, uniformLevels(cfg.Grid, 4), f.RawBits(), projection.Tile{}, 0, 0)
	if ef.Scale != 1 {
		t.Fatalf("scale = %v, want 1 when under budget", ef.Scale)
	}
}

func TestEncodeClampsSubUnityLevels(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	levels := uniformLevels(cfg.Grid, 0.25)
	ef := Encode(&f, levels, 0, projection.Tile{}, 0, 0)
	if math.Abs(ef.Bits-f.RawBits())/f.RawBits() > 1e-9 {
		t.Fatalf("sub-unity levels must clamp to 1: bits %v vs raw %v", ef.Bits, f.RawBits())
	}
}

func TestEncodeMaxScaleFloorsBits(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	// Budget demands a 100× reduction, but the codec floor caps it at 12×.
	budget := f.RawBits() / 100
	ef := Encode(&f, uniformLevels(cfg.Grid, 1), budget, projection.Tile{}, 0, 12)
	if math.Abs(ef.Scale-12) > 1e-9 {
		t.Fatalf("scale = %v, want 12 (maxScale)", ef.Scale)
	}
	if math.Abs(ef.Bits-f.RawBits()/12)/f.RawBits() > 1e-9 {
		t.Fatalf("bits %v, want spatial/12 = %v", ef.Bits, f.RawBits()/12)
	}
}

func TestEncodeSizeMismatchPanics(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	Encode(&f, []float64{1, 2, 3}, 0, projection.Tile{}, 0, 0)
}

func TestROIPSNRHigherAtLowLevel(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	f.Jitter = 0
	g := cfg.Grid
	roi := projection.Orientation{Yaw: 180, Pitch: 0}
	center := g.TileAt(roi)

	// Matrix A: ROI area at level 1, elsewhere 100.
	// Matrix B: everything at 100.
	la := make([]float64, g.Tiles())
	lb := make([]float64, g.Tiles())
	for idx := range la {
		la[idx] = 100
		lb[idx] = 100
	}
	for _, tl := range g.VisibleTiles(roi, projection.DefaultFoV) {
		la[g.Index(tl)] = 1
	}
	efA := Encode(&f, la, 0, center, 0, 0)
	efB := Encode(&f, lb, 0, center, 0, 0)
	pa := efA.ROIPSNR(cfg, roi, projection.DefaultFoV)
	pb := efB.ROIPSNR(cfg, roi, projection.DefaultFoV)
	if pa <= pb {
		t.Fatalf("ROI PSNR with high-quality ROI (%v) should beat uniform low (%v)", pa, pb)
	}
	if pa < psnrMax-1 {
		t.Fatalf("ROI at level 1 should be near max: %v", pa)
	}
}

func TestROILevel(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	g := cfg.Grid
	levels := uniformLevels(g, 1)
	roi := projection.Orientation{Yaw: 45, Pitch: 30}
	levels[g.Index(g.TileAt(roi))] = 7
	ef := Encode(&f, levels, 0, projection.Tile{}, 0, 0)
	if got := ef.ROILevel(g, roi); got != 7 {
		t.Fatalf("ROILevel = %v, want 7", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	cfg := DefaultConfig()
	s := NewSource(cfg)
	f := s.NextFrame(0)
	levels := uniformLevels(cfg.Grid, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(&f, levels, 1e6, projection.Tile{}, 0, 0)
	}
}

func BenchmarkSourceNextFrame(b *testing.B) {
	s := NewSource(DefaultConfig())
	for i := 0; i < b.N; i++ {
		s.NextFrame(time.Duration(i) * 33 * time.Millisecond)
	}
}

// RawBits returns the total raw size of the frame in bits.
func (f *Frame) RawBits() float64 {
	s := 0.0
	for _, b := range f.TileBits {
		s += b
	}
	return s
}

// EffectiveLevels materializes the full effective-level matrix (one
// LevelAt per tile) into a fresh slice.
func (ef *EncodedFrame) EffectiveLevels() []float64 {
	out := make([]float64, len(ef.Spatial))
	for idx := range ef.Spatial {
		out[idx] = ef.LevelAt(idx)
	}
	return out
}

// ROIPSNR is ROIPSNRScratch without a scratch buffer.
func (ef *EncodedFrame) ROIPSNR(cfg Config, actual projection.Orientation, fov projection.FoV) float64 {
	p, _ := ef.ROIPSNRScratch(cfg, actual, fov, nil)
	return p
}
