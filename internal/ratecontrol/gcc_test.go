package ratecontrol

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func newGCC(t *testing.T) *GCCReceiver {
	t.Helper()
	g, err := NewGCCReceiver(DefaultGCCConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGCCConfigValidate(t *testing.T) {
	if err := DefaultGCCConfig().Validate(); err != nil {
		t.Fatal(err)
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

func TestBandwidthUsageString(t *testing.T) {
	if Normal.String() != "normal" || Overuse.String() != "overuse" || Underuse.String() != "underuse" {
		t.Fatal("usage names")
	}
}

// Feed frames with stable delay in a closed loop (frame sizes track the
// target): the detector stays normal and the rate grows past its start.
func TestGCCIncreaseOnStableDelay(t *testing.T) {
	g := newGCC(t)
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
	g := newGCC(t)
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
	g := newGCC(t)
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
	g := newGCC(t)
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
	g := newGCC(t)
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

func TestGCCNeedsFramesForSlope(t *testing.T) {
	g := newGCC(t)
	g.OnFrame(0, time.Second, 1e5)
	if g.usage != Normal {
		t.Fatal("single frame should not trigger")
	}
}

// copyingLossWindow is GCCReceiver's loss window as it was before the head
// index: append, scan the expired prefix from the front, slide the rest
// home on every packet. TestGCCLossWindowMatchesCopyingReference holds the
// production window to it.
type copyingLossWindow struct {
	seqs   []seqObs
	window time.Duration
}

func (w *copyingLossWindow) add(arrival time.Duration, seq int64) {
	w.seqs = append(w.seqs, seqObs{arrival: arrival, seq: seq})
	cut := 0
	for cut < len(w.seqs) && arrival-w.seqs[cut].arrival > w.window {
		cut++
	}
	if cut > 0 {
		w.seqs = w.seqs[:copy(w.seqs, w.seqs[cut:])]
	}
}

// lossTape draws packet arrivals: steady pacing, same-instant bursts, a
// dense run longer than the rate window, idle gaps beyond it, gaps that put
// the oldest entry exactly on the window boundary, and lossy or reordered
// sequence numbers.
func lossTape(rng *rand.Rand, window time.Duration, n int) (arrivals []time.Duration, seqs []int64) {
	now, seq := time.Duration(0), int64(0)
	for len(arrivals) < n {
		run := 1
		switch d := rng.Intn(40); {
		case d == 0:
			now += window + time.Duration(rng.Intn(3))*time.Millisecond // everything expires
		case d == 1 && len(arrivals) > 0:
			// The oldest entry still inside the window lands exactly on its
			// edge (kept: the predicate is a strict >).
			i := len(arrivals) - 1
			for i > 0 && now-arrivals[i-1] <= window {
				i--
			}
			now = max(now, arrivals[i]+window)
		case d == 2:
			run = 1200 + rng.Intn(600) // a dense run outlasting the window
		case d < 8:
			// same instant
		default:
			now += time.Duration(1+rng.Intn(12)) * time.Millisecond
		}
		for ; run > 0; run-- {
			switch d := rng.Intn(30); {
			case d == 0:
				seq += 2 + rng.Int63n(5) // loss
			case d == 1:
				seq-- // reordered
			default:
				seq++
			}
			arrivals = append(arrivals, now)
			seqs = append(seqs, seq)
			if run > 1 {
				now += time.Millisecond
			}
		}
	}
	return arrivals, seqs
}

func TestGCCLossWindowMatchesCopyingReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := newGCC(t), newGCC(t)
		win := &copyingLossWindow{window: gccRateWindow}
		arrivals, seqs := lossTape(rng, gccRateWindow, 6000)
		peak := 0
		for i, at := range arrivals {
			delay := time.Duration(rng.Intn(40)) * time.Millisecond
			length, capacity := got.seqs.Len(), got.seqs.Cap()
			got.OnPacket(at, delay, 9600, seqs[i])
			if got.seqs.Cap() != capacity && length != capacity {
				t.Fatalf("seed %d pkt %d: seqs grew %d -> %d holding %d (room left)",
					seed, i, capacity, got.seqs.Cap(), length)
			}
			// The reference is the same controller reading the copying window.
			ref.OnFrame(at, delay, 9600)
			win.add(at, seqs[i])
			ref.seqs.Reset()
			for _, o := range win.seqs {
				ref.seqs.Push(o)
			}
			peak = max(peak, len(win.seqs))

			if got.seqs.Len() != len(win.seqs) {
				t.Fatalf("seed %d pkt %d @%v: live window has %d entries, reference %d", seed, i, at, got.seqs.Len(), len(win.seqs))
			}
			for k, o := range win.seqs {
				if *got.seqs.At(k) != o {
					t.Fatalf("seed %d pkt %d @%v: window entry %d = %v, reference %v", seed, i, at, k, *got.seqs.At(k), o)
				}
			}
			if g, w := got.LossRatio(), ref.LossRatio(); g != w {
				t.Fatalf("seed %d pkt %d @%v: LossRatio %v, reference %v", seed, i, at, g, w)
			}
			if g, w := got.Update(at), ref.Update(at); g != w {
				t.Fatalf("seed %d pkt %d @%v: Update %v, reference %v", seed, i, at, g, w)
			}
		}
		// Growth stops once the window has peaked: the ring never holds
		// more than a doubling of the largest live window.
		if c := got.seqs.Cap(); c > 2*peak+4 {
			t.Fatalf("seed %d: seqs holds %d for a peak window of %d", seed, c, peak)
		}
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
