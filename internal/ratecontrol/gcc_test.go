package ratecontrol

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestGCCConfigValidate(t *testing.T) {
	if err := DefaultGCCConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if Normal.String() != "normal" || Overuse.String() != "overuse" || Underuse.String() != "underuse" {
		t.Fatal("usage names")
	}
	g := newGCC(t, true)
	if g.OnFrame(0, time.Second, 1e5); g.usage != Normal {
		t.Fatal("a single frame triggered the detector")
	}
	muts := []func(*GCCConfig){
		func(c *GCCConfig) { c.InitialRate = GCCMaxRate * 2 },
		func(c *GCCConfig) { c.InitialRate = GCCMinRate / 2 },
	}
	for i, m := range muts {
		c := DefaultGCCConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

// Feed frames with stable delay in a closed loop (frame sizes track the
// target): the detector stays normal and the rate grows past its start.
func TestGCCIncreaseOnStableDelay(t *testing.T) {
	g := newGCC(t, true)
	r0 := g.rate
	var rate float64
	for i := 0; i < 600; i++ {
		now := time.Duration(i) * 33 * time.Millisecond
		g.OnFrame(now, 80*time.Millisecond, g.rate/30)
		if i%3 == 0 {
			rate = g.Update(now)
		}
	}
	if g.usage != Normal {
		t.Fatalf("usage = %v, want normal", g.usage)
	}
	if rate <= r0 {
		t.Fatalf("rate %v did not grow from %v", rate, r0)
	}
}

// Steadily growing delay (queue building) must trigger overuse and a
// multiplicative decrease below the received rate.
func TestGCCOveruseDecreases(t *testing.T) {
	g := newGCC(t, true)
	// Push the rate up first; frame sizes track the target rate as they
	// would in a closed loop.
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		now = time.Duration(i) * 33 * time.Millisecond
		g.OnFrame(now, 80*time.Millisecond, g.rate/30)
		g.Update(now)
	}
	var after, beforeDecrease float64
	sawOveruse := false
	for i := 0; i < 200 && !sawOveruse; i++ {
		now += 33 * time.Millisecond
		delay := 80*time.Millisecond + time.Duration(i)*12*time.Millisecond // ~360 ms/s slope
		g.OnFrame(now, delay, g.rate/30)
		if g.usage == Overuse {
			sawOveruse = true
		}
		beforeDecrease = g.rate
		after = g.Update(now)
	}
	if !sawOveruse {
		t.Fatal("growing delay never signalled overuse")
	}
	if after >= beforeDecrease {
		t.Fatalf("rate %v did not decrease from %v on overuse", after, beforeDecrease)
	}
}

// Falling delay (queues draining) signals underuse → hold, not increase.
func TestGCCUnderuseHolds(t *testing.T) {
	g := newGCC(t, true)
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		now = time.Duration(i) * 33 * time.Millisecond
		delay := 800*time.Millisecond - time.Duration(i)*10*time.Millisecond
		g.OnFrame(now, delay, 100e3)
	}
	if g.usage != Underuse {
		t.Fatalf("usage = %v, want underuse", g.usage)
	}
	r1 := g.Update(now)
	r2 := g.Update(now + 100*time.Millisecond)
	if r1 != r2 {
		t.Fatalf("rate changed during hold: %v → %v", r1, r2)
	}
}

func TestGCCRateClamped(t *testing.T) {
	g := newGCC(t, true)
	// 1 Mbit frames every 33 ms arrive at ≈30 Mbit/s, so the 1.5×
	// received-rate cap sits far above the 20 Mbit/s ceiling.
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now = time.Duration(i) * 33 * time.Millisecond
		g.OnFrame(now, 50*time.Millisecond, 1e6)
		g.Update(now)
	}
	if g.rate > GCCMaxRate {
		t.Fatalf("rate %v exceeds max %v", g.rate, GCCMaxRate)
	}
	if g.rate != GCCMaxRate {
		t.Fatalf("rate %v should have reached max %v", g.rate, GCCMaxRate)
	}
}

func TestGCCReceivedRate(t *testing.T) {
	g := newGCC(t, true)
	// 20 frames at 100ms spacing cover 2s; the 1s rate window keeps 11.
	for i := 0; i < 20; i++ {
		g.OnFrame(time.Duration(i)*100*time.Millisecond, 50*time.Millisecond, 100e3)
	}
	now := 19 * 100 * time.Millisecond
	got := g.ReceivedRate(now)
	// 11 frames within the last second (1.0s window inclusive): 1.1 Mbit/s.
	if math.Abs(got-1.1e6) > 1e5 {
		t.Fatalf("received rate %v, want ≈1.1e6", got)
	}
}

// BenchmarkGCCReceiver times one received frame — OnFrame, then Update, as
// a viewer's feedback tick does — on a full window, with the trendline
// scanned (sessions and the live path) and kept incrementally (the city).
// The delays drift on a seeded 4 096-frame tape, gently enough that the
// detector never signals overuse, so no decrease empties the window and
// every scan covers gccWindow frames.
func BenchmarkGCCReceiver(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	d, ramp := 80*time.Millisecond, time.Duration(0)
	for i := range delays {
		if i%64 == 0 {
			ramp = time.Duration(rng.Intn(3)-1) * time.Millisecond
		}
		d = min(max(d+ramp+time.Duration(rng.Intn(5)-2)*time.Millisecond, 40*time.Millisecond), 400*time.Millisecond)
		delays[i] = d
	}
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"scan", false}, {"incremental", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := DefaultGCCConfig()
			cfg.IncrementalTrendline = mode.incremental
			g, err := NewGCCReceiver(cfg)
			if err != nil {
				b.Fatal(err)
			}
			frame := 33 * time.Millisecond
			for i := 0; i < 2*gccWindow; i++ { // fill the window
				now := time.Duration(i) * frame
				g.OnFrame(now, 80*time.Millisecond, 40e3)
				g.Update(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := time.Duration(2*gccWindow+i) * frame
				g.OnFrame(now, delays[i%len(delays)], 40e3)
				g.Update(now)
			}
			b.StopTimer()
			if n := g.fend - g.fstart; n != gccWindow {
				b.Fatalf("window holds %d frames after the run, want %d", n, gccWindow)
			}
		})
	}
}
